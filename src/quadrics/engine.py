"""Exact arithmetic over the space presentations.

Elements are finite sums of point-ring scalars against admissible
monomials in the space's letters, homogeneous in the full grading.
`multiply` is the only product: a normal form is a product by 1, a
scalar multiple a product by a dressed 1.  It runs the presentation's
declared rewrite rules, and nothing else, to a fixpoint; a rule fires
only where every monomial it produces is admissible, so every
intermediate is a class and evaluation may refuse the rest.  Then, when
the result is not already supported on the coset table, it solves for
the unique basis combination with the same evaluation.  The same solver, fed
the complementary section's own evaluation or a declared pushforward
target instead, is what turns the stated section/pushforward lemmas into
machine checks: `verify_presentation` replays all of them.

Solving is over the integers: a Burnside coefficient a + b*g is two
integer unknowns, and one primitive, `_restrict`, cuts lattices: the
identity by the homogenized equations (`_kernel`), then that by t = 1.
The candidates are dressed on ints: a coset table carries its slots'
(one, sigma) degrees, and a slot whose gap (a, b) to the target is off
both lines a = 0 and a + b = 0, the only ones where the point ring has a
class of infinite order, drops out before any scalar is built.  The
equations come from one scatter pass over the candidates' evaluations, a
row per (component, basis key), plus a zero row per key that only the
target supports.  A solve is exact or raises: a solution lattice with a
non-zero kernel is an AmbiguousSolveError.

`verify_presentation` checks that the slots of every sampled coset table
are a Z-basis of H*(X) under rho and of the fixed cohomology under fix
(|det| = 1, from `_kernel`).  The slot matrices are almost permutation
matrices, so the check cuts each connected block of columns that share a
(ring, basis key) row on its own; that is exact, since no cut leaves its
block, and linear in q.  A Burnside coefficient a + b*g enters rho
as a + 2b and the fixed side as a, and every other dressing has a
non-zero multiplier on one side, so a solve on such a table has no kernel.

Rewriting is bounded by the constant DEFAULT_STEP_BOUND (rule
applications per product) and fails loudly rather than silently
truncating.

Values are checked once, where they come in: outside terms by
`RingElement.from_terms`, an ansatz where a solve receives it, an outside
monomial by `SpacePresentation.eval_mono`.  The engine's own results
trust their terms: a product keeps the letters that licensed its factors'
negative powers, rules fire only onto admissible monomials and are
homogeneous (verify's `rule:` checks), and table slots are checked when a
table is built.  So the engine evaluates through the trusted door,
`SpacePresentation.eval_trusted`: an element's terms, a solve's
candidates and verify's table slots skip the admissibility test.
"""

from __future__ import annotations

from operator import mul
from typing import Iterable, Mapping

from .burnside import BurnsideScalar, UnsolvableError
from .grading import GradingElement
from .nonequiv import Key, NonequivClass
from .presentation import (FixedTuple, Mono, NoFiniteTableError, SpacePresentation,
                           Terms, mono_mul)
from .printing import power_product, scaled, signed_sum
from .scalars import (ONE, FragmentError, PointScalar, scalar_dressing)

DEFAULT_STEP_BOUND = 10_000


def render_terms(terms: Terms) -> str:
    """Print scalar/monomial pairs in the surface syntax, in the given order.

    The only scalar that prints as a sum is a bare Burnside a + b*g with a
    and b both non-zero (a scalar with an e, xi, tau or kappa part has an
    integer coefficient), so that one alone is parenthesized before its
    monomial, and the printed element re-parses to itself.
    """
    texts = []
    for scalar, mono in terms:
        coeff = str(scalar)
        if mono and scalar.coeff.a and scalar.coeff.b:
            coeff = f"({coeff})"
        texts.append(scaled(coeff, power_product(mono)))
    return signed_sum(texts)


def _add_multiple(acc: dict[Key, int], n: int, cls: NonequivClass) -> None:
    """acc += n * cls, on coefficient dicts."""
    if n:
        for key, c in cls.coeffs.items():
            acc[key] = acc.get(key, 0) + n * c


def _accumulate(acc: dict[Mono, PointScalar], mono: Mono, scalar: PointScalar) -> None:
    if not scalar:
        return
    existing = acc.get(mono)
    total = scalar if existing is None else existing + scalar
    if total:
        acc[mono] = total
    elif existing is not None:
        del acc[mono]


class RingElement:
    """A homogeneous class: point-ring scalars against admissible monomials.
    The constructor trusts its terms; outside ones come in through `from_terms`."""

    __slots__ = ("space", "grading", "terms", "_eval")

    def __init__(self, space: SpacePresentation, grading: GradingElement,
                 terms: Mapping[Mono, PointScalar]):
        self.space = space
        self.grading = grading
        self.terms = {m: s for m, s in terms.items() if s}
        self._eval = None

    # --- constructors ---

    @classmethod
    def from_terms(cls, space: SpacePresentation, terms: Terms,
                   grading: GradingElement | None = None) -> "RingElement":
        """The door for outside terms: each monomial must be admissible and
        each non-zero term of degree `grading` (by default the first term's),
        or ValueError; repeated monomials are summed."""
        if grading is None and not terms:
            raise ValueError("the zero element needs an explicit grading")
        clean: dict[Mono, PointScalar] = {}
        for scalar, mono in terms:
            if not space.is_admissible(mono):
                raise space._refuse(mono, "not admissible, an unlicensed negative power")
            degree = space.mono_grading(mono) + space.group.element(*scalar.grading())
            grading = degree if grading is None else grading
            if scalar and degree != grading:
                raise ValueError(f"term {render_terms(((scalar, mono),))} has degree "
                                 f"{degree}, not {grading}")
            _accumulate(clean, mono, scalar)
        return cls(space, grading, clean)

    @classmethod
    def from_mono(cls, space: SpacePresentation, mono: Mono,
                  scalar: PointScalar = ONE) -> "RingElement":
        return cls.from_terms(space, ((scalar, mono),))

    @classmethod
    def zero(cls, space: SpacePresentation, grading: GradingElement) -> "RingElement":
        return cls(space, grading, {})

    @classmethod
    def one(cls, space: SpacePresentation) -> "RingElement":
        return cls(space, space.group.zero(), {(): ONE})

    # --- structure ---

    def is_zero(self) -> bool:
        return not self.terms

    def sorted_terms(self) -> Terms:
        return tuple((self.terms[m], m) for m in sorted(self.terms))

    def evaluate(self) -> tuple[NonequivClass, FixedTuple]:
        """(sum of rho_multiplier * rho(m), sum of fix_multiplier * fix(m)),
        summed on one coefficient dict per ring, one class built per ring."""
        if self._eval is None:
            space = self.space
            rho_acc: dict[Key, int] = {}
            fix_accs: list[dict[Key, int]] = [{} for _ in space.fixed_rings]
            for mono, scalar in self.terms.items():
                rho, fix = space.eval_trusted(mono)
                _add_multiple(rho_acc, scalar.rho_multiplier(), rho)
                n = scalar.fix_multiplier()
                for acc, part in zip(fix_accs, fix.parts):
                    _add_multiple(acc, n, part)
            self._eval = (NonequivClass(space.underlying, rho_acc),
                          FixedTuple(NonequivClass(ring, acc)
                                     for ring, acc in zip(space.fixed_rings, fix_accs)))
        return self._eval

    # --- arithmetic ---

    def _check(self, other: "RingElement") -> None:
        if self.space is not other.space:
            raise ValueError("elements live over different spaces")
        if self.grading != other.grading:
            raise ValueError(f"degrees differ: {self.grading} vs {other.grading}")

    def __add__(self, other: "RingElement") -> "RingElement":
        self._check(other)
        out = dict(self.terms)
        for mono, scalar in other.terms.items():
            _accumulate(out, mono, scalar)
        return RingElement(self.space, self.grading, out)

    def __sub__(self, other: "RingElement") -> "RingElement":
        return self + (-other)

    def __neg__(self) -> "RingElement":
        return RingElement(self.space, self.grading,
                           {m: -s for m, s in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, RingElement):
            return multiply(self, other)
        if isinstance(other, int):
            other = BurnsideScalar(other, 0)
        if isinstance(other, BurnsideScalar):
            other = PointScalar.from_burnside(other)
        if isinstance(other, PointScalar):
            return scalar_multiple(self, other)
        return NotImplemented

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return (isinstance(other, RingElement) and self.space is other.space
                and self.grading == other.grading and self.terms == other.terms)

    def __str__(self):
        return render_terms(self.sorted_terms())

    def __repr__(self):
        return f"RingElement({self.space.name}: {self!s})"


# --------------------------------------------------------------------------
# rewriting
# --------------------------------------------------------------------------

def _fire(space: SpacePresentation, mono: Mono) -> list[tuple[PointScalar, Mono]] | None:
    """The results of the first rule whose left side divides `mono` and whose
    results are all admissible, or None: rewriting never leaves the classes."""
    exps, order = dict(mono), space.letter_order
    for rule in space.rules:
        if not all(exps.get(n, 0) >= e for n, e in rule.lhs):
            continue
        stripped = mono_mul(mono, tuple((n, -e) for n, e in rule.lhs), order)
        results = [(s, mono_mul(stripped, delta, order)) for s, delta in rule.rhs]
        if all(space.is_admissible(m) for _, m in results):
            return results
    return None


def _rewrite(space: SpacePresentation, terms: Mapping[Mono, PointScalar]) -> dict[Mono, PointScalar]:
    steps = 0
    out: dict[Mono, PointScalar] = {}
    work = [(m, s) for m, s in terms.items()]
    while work:
        mono, scalar = work.pop()
        if not scalar:
            continue
        steps += 1
        if steps > DEFAULT_STEP_BOUND:
            raise RuntimeError(f"rewriting exceeded DEFAULT_STEP_BOUND="
                               f"{DEFAULT_STEP_BOUND} steps in {space.name}")
        results = _fire(space, mono)
        if results is None:
            _accumulate(out, mono, scalar)
        else:
            work += [(m, scalar * s) for s, m in results]
    return out


def multiply(u: RingElement, v: RingElement) -> RingElement:
    """u*v: the termwise products, rewritten by the declared rules.

    The rewritten form stands when it is zero, has no finite table, lies on
    the table's slots, or carries a 2-torsion term e^k*xi^j (k, j >= 1,
    which evaluates to 0); otherwise it is re-solved from its evaluation
    pair.  A scalar product outside the point-ring fragment is solved from
    the product of the factors' evaluations, and a solve that fails there
    keeps the FragmentError as its context.
    """
    if u.space is not v.space:
        raise ValueError("elements live over different spaces")
    space, grading = u.space, u.grading + v.grading
    try:
        terms: dict[Mono, PointScalar] = {}
        for m1, s1 in u.terms.items():
            for m2, s2 in v.terms.items():
                _accumulate(terms, mono_mul(m1, m2, space.letter_order), s1 * s2)
        element = RingElement(space, grading, _rewrite(space, terms))
        if not element.terms:
            return element
        try:
            slots = set(space.coset_basis(grading))
        except NoFiniteTableError:
            return element  # BU1, or a deep bundle coset
        if slots.issuperset(element.terms) or any(
                s.e and s.xi for s in element.terms.values()):
            return element
        return solve_with_coefficients(space, grading, *element.evaluate())[0]
    except FragmentError:
        rho, fix = (a * b for a, b in zip(u.evaluate(), v.evaluate()))
        return solve_with_coefficients(space, grading, rho, fix)[0]


def scalar_multiple(u: RingElement, scalar: PointScalar) -> RingElement:
    return multiply(u, RingElement.from_mono(u.space, (), scalar))


def normal_form(u: RingElement) -> RingElement:
    return multiply(u, RingElement.one(u.space))


def tau_transfer(u: RingElement, j: int = 1) -> RingElement:
    """Multiplication by tau(iota^{-2j}); Frobenius makes this the transfer."""
    return scalar_multiple(u, PointScalar.tau_power(j))


# --------------------------------------------------------------------------
# solving against evaluation
# --------------------------------------------------------------------------

class AmbiguousSolveError(UnsolvableError):
    """The evaluation pair does not pin down the coefficients uniquely."""


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(d, s, t) with s*a + t*b = d and |d| = gcd(a, b)."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b, s0, s1, t0, t1 = b, r, s1, s0 - q * s1, t1, t0 - q * t1
    return a, s0, t0


def _restrict(x0: list[int], basis: list[list[int]], row: list[int],
              target: int) -> tuple[list[int], list[list[int]], int]:
    """Cut the affine lattice x0 + Z*basis down to its points with row.x = target.

    Extended-gcd column steps, each unimodular so the lattice stays the
    same, leave one vector `step` on which the row takes g = gcd of its
    values on the basis, and make the row vanish on all the others; the
    point then moves along `step` and the others span the new lattice.
    Returns the point, the new basis and |g| (1 when the row vanishes on
    the basis, which then stays as it is).
    """
    kept, step, g = [], None, 0
    for vec in basis:
        value = sum(map(mul, row, vec))
        if not value:
            kept.append(vec)
        elif step is None:
            step, g = vec, value
        else:
            d, s, t = _xgcd(g, value)
            u, w = value // d, g // d
            kept.append([u * p - w * v for p, v in zip(step, vec)])
            step, g = [s * p + t * v for p, v in zip(step, vec)], d
    at = sum(map(mul, row, x0))
    if step is None:
        if at != target:
            raise UnsolvableError("evaluation targets are inconsistent with the basis")
        return x0, basis, 1
    shift, rest = divmod(target - at, g)
    if rest:
        raise UnsolvableError(f"no integer point: {target - at} is not a multiple of {abs(g)}")
    return ([x + shift * p for x, p in zip(x0, step)] if shift else x0), kept, abs(g)


def _kernel(rows: list[list[int]], ncols: int) -> tuple[list[list[int]], int]:
    """A basis of ker(rows) ∩ Z^ncols: the identity lattice cut one row at a
    time, stopping once nothing is left; and the product of the |g| the
    cuts find.  The cut vectors, in order, make the rows lower triangular
    with those g on the diagonal, so for a square system with a zero
    kernel the product is |det|."""
    x, basis, index = [0] * ncols, [[0] * i + [1] + [0] * (ncols - 1 - i) for i in range(ncols)], 1
    for row in rows:
        if not basis:
            break
        x, basis, g = _restrict(x, basis, row, 0)
        index *= g
    return basis, index


def _integer_solve(rows: list[list[int]], rhs: list[int],
                   ncols: int) -> tuple[list[int], list[list[int]]]:
    """The integer points of rows.x = rhs: a point and a basis of ker ∩ Z^ncols.

    The lattice of (x, t) in Z^(ncols+1) with rows.x = t*rhs is the kernel
    of the homogenized rows; then the cut t = 1 finds the system
    inconsistent over Q when t vanishes on that lattice, and with no
    integer point when t only takes multiples of a larger number (the
    least denominator of a rational solution).
    """
    basis, _ = _kernel([[*row, -target] for row, target in zip(rows, rhs)], ncols + 1)
    x, basis, _ = _restrict([0] * (ncols + 1), basis, [0] * ncols + [1], 1)
    return x[:ncols], [vec[:ncols] for vec in basis]


def _dressed_slots(grading: GradingElement, monos: tuple[Mono, ...],
                   degrees: tuple[int, ...]) -> list[tuple[PointScalar, Mono]]:
    """(template, slot) for each slot dressed to `grading`, in slot order.

    `monos` and their flat (one, sigma) `degrees` come from
    SpacePresentation.coset_table or section_family, so the slots lie on
    the grading's coset and the gap to it is the int pair (a, b).  The
    template is the unique point-ring scalar of degree (a, b).  A slot off
    both lines a = 0 and a + b = 0 has none and drops out on two int
    tests; scalar_dressing is asked only on the lines, where an odd
    negative sigma-degree or an odd xi or transfer degree still has none.
    """
    one, sigma = grading.one, grading.sigma
    out = []
    pairs = iter(degrees)
    for mono, slot_one, slot_sigma in zip(monos, pairs, pairs):
        a, b = one - slot_one, sigma - slot_sigma
        if a and a + b:
            continue
        dressed = scalar_dressing((a, b))
        if dressed is not None:
            out.append((dressed[0], mono))
    return out


def _equations(space: SpacePresentation, candidates: list[tuple[PointScalar, Mono]]):
    """The columns of the candidates' weighted evaluations, in one scatter pass.

    Returns (burnside, unknowns, table): per candidate whether its template
    is a plain Burnside scalar; per unknown (candidate, rho weight, fix
    weight), where a + b*g is a, weighted (1, 1), and b, weighted (2, 0);
    and a row of length len(unknowns) per (component, basis key) that some
    unknown supports, component 0 being rho and ci > 0 fixed part ci - 1.
    """
    burnside = [template.shape() == (0, 0, 0, 0) for template, _ in candidates]
    unknowns: list[tuple[int, int, int]] = []
    for k, two in enumerate(burnside):
        unknowns += [(k, 1, 1), (k, 2, 0)] if two else [(k, 1, 1)]
    ncols = len(unknowns)
    evals = [space.eval_trusted(mono) for _, mono in candidates]
    scales = [(t.rho_multiplier(), t.fix_multiplier()) for t, _ in candidates]
    table: dict[tuple[int, Key], list[int]] = {}
    for j, (k, w_rho, w_fix) in enumerate(unknowns):
        (rho, fix), (s_rho, s_fix) = evals[k], scales[k]
        sides = ((w_rho * s_rho, rho), *((w_fix * s_fix, part) for part in fix.parts))
        for ci, (w, cls) in enumerate(sides):
            if w:
                for key, c in cls.coeffs.items():
                    row = table.get((ci, key))
                    if row is None:
                        row = table[ci, key] = [0] * ncols
                    row[j] = w * c
    return burnside, unknowns, table


def solve_with_coefficients(space: SpacePresentation, grading: GradingElement,
                            rho_target: NonequivClass, fix_target: FixedTuple,
                            ansatz: Iterable[tuple[PointScalar, Mono]] | None = None):
    """Solve (rho_target, fix_target) = sum_i c_i * template_i * mono_i over Z.

    Without an ansatz the candidates are the coset-table slots of `grading`,
    each dressed with the unique point-ring scalar filling the degree gap
    (slots whose gap supports nothing drop out; see _dressed_slots).  An
    ansatz comes from outside and passes RingElement.from_terms first.  A
    coefficient is a + b*g in the Burnside ring, two integer unknowns,
    where the template is a plain Burnside scalar, and an integer
    otherwise.  The equations are the rows of _equations, then a zero row
    per key that only the target supports, which makes the system
    inconsistent; their order does not matter.  Returns (element, records,
    ambiguous) with one (template, mono, coefficient) record per candidate,
    zeros included.

    The solution must be unique: a non-zero kernel raises
    AmbiguousSolveError, naming the candidates it leaves free.  A table
    whose slots are a Z-basis on both sides (verify's coset-tables check)
    has none, so only an ansatz can.  The flag is always False, and stays
    for callers that unpack it.

    A slot whose gap is the degree of a 2-torsion class e^k*xi^j (k, j >= 1)
    has no candidate at all: the class evaluates to 0 under both maps, so
    no solve can see a term on it, and re-solving an element that carries
    one drops that term without a word.
    """
    if ansatz is None:
        candidates = _dressed_slots(grading, *space.coset_table(grading))
    else:
        candidates = list(ansatz)
        RingElement.from_terms(space, candidates, grading)  # outside data: the door checks it
    burnside, unknowns, table = _equations(space, candidates)
    if not unknowns:
        if rho_target or fix_target:
            raise UnsolvableError(f"nothing lives in degree {grading} of {space.name}")
        return RingElement.zero(space, grading), (), False

    ncols = len(unknowns)
    targets = (rho_target, *fix_target.parts)
    for ci, target in enumerate(targets):
        for key in target.coeffs:
            if (ci, key) not in table:  # only the target supports it
                table[ci, key] = [0] * ncols
    rows = list(table.values())
    rhs = [targets[ci].coeffs.get(key, 0) for ci, key in table]

    try:
        x, basis = _integer_solve(rows, rhs, ncols)
    except UnsolvableError as err:  # re-raised as is, so its context stays
        err.args = (f"{err} in degree {grading} of {space.name}",)
        raise
    if basis:
        free = dict.fromkeys(render_terms((candidates[unknowns[j][0]],))
                             for vec in basis for j, v in enumerate(vec) if v)
        raise AmbiguousSolveError(
            f"underdetermined solve in degree {grading} of {space.name}: the "
            f"evaluation pair does not separate {', '.join(free)}")
    values = iter(x)
    records = tuple(
        (template, mono, BurnsideScalar(next(values), next(values)) if two else next(values))
        for (template, mono), two in zip(candidates, burnside))
    terms: dict[Mono, PointScalar] = {}
    for template, mono, coeff in records:
        _accumulate(terms, mono, template.scale(coeff))
    return RingElement(space, grading, terms), records, False


# --------------------------------------------------------------------------
# verification
# --------------------------------------------------------------------------

_SAMPLE_KEYS = {
    2: ((0,), (1,), (2,), (-1,), (-2,)),
    3: ((0, 0), (1, 0), (0, -1), (-1, 1), (2, -1)),
    4: ((0, 0, 0), (1, 0, 0), (0, -1, -1), (-1, 1, 0), (0, 1, 0)),
}


def _sample_keys(space: SpacePresentation):
    keys = _SAMPLE_KEYS[len(space.group.labels)]
    if space.family == "X1q":
        keys = tuple(k for k in keys if k[0] > -space.q) if space.q >= 1 else keys
    return keys


def _blocks(columns: list[tuple[NonequivClass, ...]]) -> list[tuple[int, list[list[int]]]]:
    """The connected blocks of the columns, each a class per ring, as
    (ncols, rows): columns that share a (ring, basis key) row are in one
    block, and each block keeps its own rows, in the whole matrix's row
    order, restricted to its own columns."""
    rows: dict[tuple[int, Key], dict[int, int]] = {}
    for j, classes in enumerate(columns):
        for ci, cls in enumerate(classes):
            for key, c in cls.coeffs.items():
                rows.setdefault((ci, key), {})[j] = c
    parent = list(range(len(columns)))

    def root(j: int) -> int:
        while parent[j] != j:
            parent[j] = parent[parent[j]]
            j = parent[j]
        return j

    for row in rows.values():
        first, *rest = row
        for j in rest:
            parent[root(j)] = root(first)
    blocks: dict[int, tuple[list[int], list[dict[int, int]]]] = {}
    for j in range(len(columns)):
        blocks.setdefault(root(j), ([], []))[0].append(j)
    for row in rows.values():
        blocks[root(next(iter(row)))][1].append(row)
    return [(len(cols), [[row.get(j, 0) for j in cols] for row in block_rows])
            for cols, block_rows in blocks.values()]


def _is_basis(columns: list[tuple[NonequivClass, ...]]) -> bool:
    """Whether `_kernel` cuts the columns' matrix to a zero kernel with
    index 1 (|det| = 1 once there are as many keys as columns), decided
    block by block.

    A row is non-zero only on the columns of its own block, and every cut
    combines only the lattice vectors a row is non-zero on, so each vector
    stays inside one block: the kernel is the direct sum of the blocks'
    kernels, and the index is the product of the same g, row by row, as
    the whole matrix's cut finds.  A zero column is a block of its own
    with no rows, so it is its own kernel."""
    for ncols, rows in _blocks(columns):
        basis, index = _kernel(rows, ncols)
        if basis or index != 1:
            return False
    return True


def _singular_sides(space: SpacePresentation, key: tuple[int, ...]) -> list[str]:
    """The sides on which a coset table's undressed slots are not a Z-basis:
    "rho" of H*(X), "fixed" of the fixed components' cohomology.

    Either matrix must be square, and with a zero kernel its |det| is the
    index _kernel reports.  The slot matrices are almost permutation
    matrices, with blocks of at most 4 columns on every sampled table, so
    _is_basis cuts them block by block in time linear in the number of
    slots; the rho matrix's blocks by underlying degree are unions of
    those blocks.
    """
    evals = [space.eval_trusted(m) for m in space.coset_basis(key)]
    rho_ok = (len(evals) == space.underlying.rank()
              and _is_basis([(rho,) for rho, _ in evals]))
    fix_ok = (len(evals) == sum(ring.rank() for ring in space.fixed_rings)
              and _is_basis([fix.parts for _, fix in evals]))
    return [side for side, ok in (("rho", rho_ok), ("fixed", fix_ok)) if not ok]


def verify_presentation(space: SpacePresentation) -> dict:
    """Re-derive everything the presentation asserts; report per-check results."""
    checks: dict[str, bool] = {}
    failures: list[str] = []

    def record(name: str, ok: bool, detail: str = ""):
        checks[name] = bool(ok)
        if not ok:
            failures.append(f"{name}" + (f": {detail}" if detail else ""))

    bad = []
    for name in space.letter_order:
        letter = space.letters[name]
        if letter.rho and letter.rho.homogeneous_degree() != letter.grading.underlying_dim():
            bad.append(f"{name} (underlying)")
        for label, part in zip(space.group.labels, letter.fix.parts):
            if part and part.homogeneous_degree() != letter.grading.fixed_degree(label):
                bad.append(f"{name} (component {label})")
    record("letter-degrees", not bad, ", ".join(bad))

    for rel in space.relations:
        lhs = RingElement.from_terms(space, rel.lhs)
        rhs = RingElement.from_terms(space, rel.rhs, grading=lhs.grading)
        ok, detail = lhs.evaluate() == rhs.evaluate(), ""
        if ok:
            try:
                ok = normal_form(lhs) == normal_form(rhs)
            except ValueError as err:
                ok, detail = False, str(err)
        record(f"relation:{rel.name}", ok, detail)

    for rule in space.rules:
        lhs = RingElement.from_mono(space, rule.lhs)
        rhs = RingElement.from_terms(space, rule.rhs, grading=lhs.grading)
        record(f"rule:{rule.name}", lhs.evaluate() == rhs.evaluate())

    def record_solved(name: str, check):
        """Record check(); a product or solve that cannot be made fails it."""
        try:
            record(name, check())
        except UnsolvableError as err:
            record(name, False, str(err))

    for name, unit_terms, inverse_terms in space.units:
        record_solved(f"unit:{name}", lambda: multiply(
            RingElement.from_terms(space, unit_terms),
            RingElement.from_terms(space, inverse_terms)) == RingElement.one(space))

    if space.lemma_ansatz is not None:
        # the complementary section class, re-solved from its own evaluation
        # and compared with the right side of its expansion rule
        xp = space.mono(xp=1)
        xp_rule = next(r for r in space.rules if r.name == "xp-expansion")
        grading = space.mono_grading(xp)
        expected = RingElement.from_terms(space, xp_rule.rhs, grading=grading)
        record_solved("section-class", lambda: solve_with_coefficients(
            space, grading, *space.eval_mono(xp), ansatz=space.lemma_ansatz)[0] == expected)

    for name, declared in space.pushforwards.items():
        expected = RingElement.from_terms(space, declared)
        # The declared formula may use a different spanning set than the
        # ansatz (e.g. a zeta_1*c_chi_omega term), so compare normal forms.
        record_solved(f"pushforward:{name}", lambda: normal_form(solve_with_coefficients(
            space, expected.grading, *space.pushforward_targets[name],
            ansatz=space.pushforward_ansatz)[0]) == normal_form(expected))

    if space.identifications:
        ident = {k: RingElement.from_terms(space, v)
                 for k, v in space.identifications.items()}
        record_solved("identification:first-factor",
                      lambda: multiply(ident["cw1"], ident["cxw1"]).is_zero())
        record_solved("identification:second-factor",
                      lambda: multiply(ident["cw2"], ident["cxw2"]).is_zero())
        shift = RingElement.from_mono(space, space.mono(z00=2, z01=1, z10=1),
                                      PointScalar.tau_power(1))
        record_solved("identification:bundle-factor", lambda: multiply(
            ident["cw_bundle"], ident["cxw_bundle"])
            == multiply(shift, multiply(ident["cw1"], ident["cw2"])))

    if space.family != "BU1":
        bad = [f"{side} side of coset {key}" for key in _sample_keys(space)
               for side in _singular_sides(space, key)]
        record("coset-tables", not bad, ", ".join(bad[:4]))

    return {
        "schema": "quadrics/verify/1",
        "space": space.name,
        "q": space.q,
        "checks": checks,
        "failures": failures,
        "ok": not failures,
    }


def annihilator_check(space: SpacePresentation,
                      z: RingElement) -> tuple[bool, bool]:
    """Decide (partner * z == 0, z in the section ideal) independently.

    The two booleans agree exactly when the annihilator of the section
    class is the principal ideal on the complementary class.  The law is
    asked only of the families with a single ruling through the
    distinguished section, and even there it is not an identity: on
    Q_BD(1) the partner xp kills z00*xp and z00*z11^-1*xp, yet their
    evaluation pair (y, (0, 0, y)) is not reached by x times any point-ring
    combination of the shifted coset's whole table (the solve has no
    integer point: 1 is not a multiple of 2), so, as far as the tables
    span, neither is an x-multiple and the answer is (True, False).  In
    the two-ruling even quadrics the complementary section is disjoint
    from x, and whether it lies in x's ruling depends on the parity of q;
    either way the law fails there, so asking for it is an error rather
    than a false negative.

    Membership is decided by span, not by syntax: z is a member when the
    solve of its evaluation against the coset's section family (see
    SpacePresentation.section_family) has z's normal form.  The tables
    write some x-divisible classes on xp slots, so a normal form without
    x can still lie in the ideal.
    """
    if space.annihilator_pair is None:
        raise ValueError(
            f"{space.name}: the annihilator law does not hold (the complementary "
            "section is not the annihilator of x); only Q_BD and Q22 support it")
    _, partner = space.annihilator_pair
    partner_elt = RingElement.from_mono(space, space.mono({partner: 1}))
    killed = multiply(partner_elt, z).is_zero()
    target = normal_form(z)
    if target.is_zero():
        return killed, True
    family = _dressed_slots(z.grading, *space.section_family(z.grading))
    try:
        solved = solve_with_coefficients(space, z.grading, *z.evaluate(),
                                         ansatz=family)[0]
    except UnsolvableError:
        return killed, False  # the evaluation pair is outside the family's span
    return killed, normal_form(solved) == target
