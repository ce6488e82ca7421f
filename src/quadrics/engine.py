"""Exact arithmetic over the space presentations.

Elements are finite sums of point-ring scalars against admissible
monomials in the space's letters, homogeneous in the full grading.
`multiply` is the only product: a normal form is a product by 1, a
scalar multiple a product by a dressed 1.  Every finite coset table is a
Z-basis under rho and under fix, so where no slot of a degree can carry a
2-torsion class e^k*xi^j the evaluation pair decides the class
(`_evaluation_decides`): a product there is the solve of the product of
the factors' evaluations, and verify's `relation:` and `pushforward:`
checks compare pairs and make one table solve.  The declared rewrite
rules run only where evaluation cannot see the class; a rule fires only
where every monomial it produces is admissible, so every intermediate is
a class.  Classes outside the point-ring fragment (scalars.py) are
invisible to both paths.  The same solver, fed the complementary
section's own evaluation or a declared pushforward target, turns the
stated section/pushforward lemmas into machine checks.

Solving is over the integers: a Burnside coefficient a + b*g is two
integer unknowns, carried only by a slot whose gap to the target lies on
a = 0 or a + b = 0 (`_lines`).  One inverse decides a line of a table:
`_inverse` of the line's columns, a sparse map from each (ring, key) row
to its column of the integer inverse, or None when the line is not a
Z-basis of its rows; a lone slot must be a signed basis class, a longer
line is inverted block by block.  A table solve scans the table's degrees
once (`_lines`) and reads its records straight off the inverses of its
rho line and its fixed line, kept once per space (`_line_inverse`); only
a declined read, and an ansatz, list candidates for the lattice
(`_integer_solve`), which decides and words every failure.
`verify_presentation` checks that every sampled table is a Z-basis on
both sides (`_singular_sides`), line by line: a lone slot by its signed
row (`_signed_row`), a longer line by `_inverse`; the lines' rows must be
distinct and number the rank.  This is linear in q.  Rewriting fails
loudly past DEFAULT_STEP_BOUND rule applications per product rather than
silently truncating.

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

from functools import lru_cache
from operator import mul
from typing import Iterable, Mapping

from .burnside import BurnsideScalar, UnsolvableError
from .grading import GradingElement
from .nonequiv import Key, NonequivClass
from .presentation import (FixedTuple, Mono, NoFiniteTableError, SpacePresentation,
                           Terms, mono_mul, mono_str)
from .printing import power_product, scaled, signed_sum
from .scalars import (ONE, FragmentError, PointScalar, scalar_dressing)

DEFAULT_STEP_BOUND = 10_000

# _inverse's result: per (ring, key) row, the inverse's column as (column, entry) pairs
Inverse = dict[tuple[int, Key], tuple[tuple[int, int], ...]]


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
        or ValueError; repeated monomials are summed.  Degrees are compared as
        ints (_int_grading plus the scalar's), with no GradingElement built
        but the default and the error's."""
        if grading is None and not terms:
            raise ValueError("the zero element needs an explicit grading")
        clean: dict[Mono, PointScalar] = {}
        for scalar, mono in terms:
            if not space.is_admissible(mono):
                raise space._refuse(mono, "not admissible, an unlicensed negative power")
            (one, sigma, omega), (s_one, s_sigma) = space._int_grading(mono), scalar.grading()
            degree = (one + s_one, sigma + s_sigma, tuple(omega))
            if grading is None:
                grading = GradingElement(space.group, *degree)
            elif scalar and (degree != (grading.one, grading.sigma, grading.omega)
                             or space.group != grading.group):
                raise ValueError(f"term {render_terms(((scalar, mono),))} has degree "
                                 f"{GradingElement(space.group, *degree)}, not {grading}")
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
        summed on one coefficient dict per ring, one class built per ring; a
        lone term with multipliers 1 and 1 (from_mono) reads eval_trusted's
        shared pair, as classes are never changed in place."""
        if self._eval is None:
            space = self.space
            if len(self.terms) == 1:
                (mono, scalar), = self.terms.items()
                if scalar.rho_multiplier() == scalar.fix_multiplier() == 1:
                    self._eval = space.eval_trusted(mono)
                    return self._eval
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
        if isinstance(other, (int, BurnsideScalar)):
            other = ONE.scale(other)
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


def _rewrite(space: SpacePresentation, grading: GradingElement,
             terms: Mapping[Mono, PointScalar]) -> dict[Mono, PointScalar]:
    """The terms rewritten to a fixpoint; past DEFAULT_STEP_BOUND rule
    applications a RuntimeError names the degree and the monomial."""
    steps = 0
    out: dict[Mono, PointScalar] = {}
    work = [(m, s) for m, s in terms.items()]
    while work:
        mono, scalar = work.pop()
        if not scalar:
            continue
        steps += 1
        if steps > DEFAULT_STEP_BOUND:
            raise RuntimeError(f"rewriting exceeded DEFAULT_STEP_BOUND={DEFAULT_STEP_BOUND} "
                               f"steps in degree {grading} of {space.name}, at "
                               f"monomial {mono_str(mono)}")
        results = _fire(space, mono)
        if results is None:
            _accumulate(out, mono, scalar)
        else:
            work += [(m, scalar * s) for s, m in results]
    return out


def _evaluation_decides(space: SpacePresentation, grading: GradingElement) -> bool | None:
    """Whether the evaluation pair decides the classes of `grading`: its coset
    has a finite table, a Z-basis under rho and under fix (verify's
    `coset-tables`), and no slot's gap (a, b) is the degree of a 2-torsion
    class e^k*xi^j (a < 0, a even, a + b > 0), which neither map sees.
    None, not False, where there is no finite table."""
    try:
        _, degrees = space.coset_table(grading)
    except NoFiniteTableError:  # BU1, or a deep bundle coset
        return None
    pairs = iter(degrees)
    for one, sigma in zip(pairs, pairs):
        a = grading.one - one
        if a < 0 and not a % 2 and a + grading.sigma - sigma > 0:
            return False
    return True


def multiply(u: RingElement, v: RingElement) -> RingElement:
    """u*v: where evaluation decides the degree (_evaluation_decides), the
    solve of the product of the factors' evaluations, with no termwise
    product formed.  Elsewhere the termwise products rewritten by the
    declared rules, which preserve evaluation (verify's `rule:` checks);
    that form stands when there is no table, or it is zero, carries a term
    e^k*xi^j (which evaluates to 0) or lies on the table's slots.  Otherwise,
    or when a termwise scalar product leaves the point-ring fragment, the
    same solve, whose errors then keep the FragmentError as their context.
    """
    if u.space is not v.space:
        raise ValueError("elements live over different spaces")
    space, grading = u.space, u.grading + v.grading

    def solved() -> RingElement:
        rho, fix = (a * b for a, b in zip(u.evaluate(), v.evaluate()))
        return solve_with_coefficients(space, grading, rho, fix)[0]

    decides = _evaluation_decides(space, grading)
    if decides:
        return solved()
    try:
        terms: dict[Mono, PointScalar] = {}
        for m1, s1 in u.terms.items():
            for m2, s2 in v.terms.items():
                _accumulate(terms, mono_mul(m1, m2, space.letter_order), s1 * s2)
        element = RingElement(space, grading, _rewrite(space, grading, terms))
    except FragmentError:
        return solved()
    if (decides is None or not element.terms or any(s.e and s.xi for s in element.terms.values())
            or set(space.coset_basis(grading)).issuperset(element.terms)):
        return element
    return solved()


def scalar_multiple(u: RingElement, scalar: PointScalar) -> RingElement:
    return multiply(u, RingElement.from_mono(u.space, (), scalar))


def normal_form(u: RingElement) -> RingElement:
    """u as a product by 1: decided by evaluation or rewritten, as in multiply."""
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


def _blocks(columns: list[tuple[NonequivClass, ...]]
            ) -> list[tuple[list[int], list[tuple[int, Key]], list[list[int]]]]:
    """The connected blocks of the columns, each a class per ring, as
    (column indices, (ring, key) rows, the rows on those columns); a zero
    column is a block with no rows.

    One pass over the entries joins each column to the first owner of each
    of its (ring, key) rows (union-find) and keeps the column's entries;
    then each row's owner gives way to its place in its block, and the
    block rows are read off the kept entries.
    """
    parent = list(range(len(columns)))

    def root(j: int) -> int:
        while parent[j] != j:
            parent[j] = parent[parent[j]]
            j = parent[j]
        return j

    owner: dict[tuple[int, Key], int] = {}
    entries: list[list[tuple[tuple[int, Key], int]]] = []
    for j, classes in enumerate(columns):
        column = []
        for ci, cls in enumerate(classes):
            for key, c in cls.coeffs.items():
                row = (ci, key)
                first = owner.setdefault(row, j)
                if first != j:
                    parent[root(j)] = root(first)
                column.append((row, c))
        entries.append(column)
    blocks: dict[int, tuple[list[int], list[tuple[int, Key]]]] = {}
    for j in range(len(columns)):
        r = root(j)
        block = blocks.get(r)
        if block is None:
            blocks[r] = ([j], [])
        else:
            block[0].append(j)
    for row, j in owner.items():
        keys = blocks[root(j)][1]
        owner[row] = len(keys)  # from here on, the row's place in its block
        keys.append(row)
    out = []
    for cols, keys in blocks.values():
        rows = [[0] * len(cols) for _ in keys]
        for t, j in enumerate(cols):
            for row, c in entries[j]:
                rows[owner[row]][t] = c
        out.append((cols, keys, rows))
    return out


def _unimodular_inverse(rows: list[list[int]]) -> list[list[int]] | None:
    """The integer inverse of a square matrix with |det| = 1, or None:
    Gauss-Jordan by extended-gcd row steps (as in _restrict), which leave
    each column's gcd on the diagonal, so |det| = 1 exactly when every
    pivot is +-1."""
    k = len(rows)
    work = [[*row, *(int(i == j) for j in range(k))] for i, row in enumerate(rows)]
    for c in range(k):
        pivot = work[c]
        for r in range(c + 1, k):
            value, other = work[r][c], work[r]
            if value:
                d, s, t = _xgcd(pivot[c], value)
                u, w = value // d, pivot[c] // d
                pivot, work[r] = ([s * p + t * v for p, v in zip(pivot, other)],
                                  [u * p - w * v for p, v in zip(pivot, other)])
        if pivot[c] not in (1, -1):
            return None
        work[c] = pivot = pivot if pivot[c] == 1 else [-p for p in pivot]
        for r in range(k):
            factor = work[r][c]
            if r != c and factor:
                work[r] = [v - factor * p for v, p in zip(work[r], pivot)]
    return [row[k:] for row in work]


def _signed_row(classes: tuple[NonequivClass, ...]) -> tuple[int, Key] | None:
    """The (ring, key) row of a column, a class per ring, that is a signed
    basis class (one entry, +-1), or None."""
    row = None
    for ci, cls in enumerate(classes):
        for key, c in cls.coeffs.items():
            if row is not None or c not in (1, -1):
                return None
            row = (ci, key)
    return row


def _inverse(columns: list[tuple[NonequivClass, ...]]) -> Inverse | None:
    """The inverse of the columns' matrix, each column a class per ring, as
    the (column, entry) pairs of its column per (ring, key) row; its keys
    are the rows, and no columns give {}.  None when a block (_blocks) is
    not square, as a zero column's is, or has |det| != 1
    (_unimodular_inverse).  A lone column must be a signed basis class
    (_signed_row), its own inverse, read directly."""
    if len(columns) == 1:
        row = _signed_row(columns[0])
        return row and {row: ((0, columns[0][row[0]].coeffs[row[1]]),)}
    out = {}
    for cols, keys, rows in _blocks(columns):
        inverse = _unimodular_inverse(rows) if len(keys) == len(cols) else None
        if inverse is None:
            return None
        for i, row in enumerate(keys):
            out[row] = tuple((j, coords[i]) for j, coords in zip(cols, inverse) if coords[i])
    return out


def _line_inverse(space: SpacePresentation, side: int, slots: list[Mono]) -> Inverse | None:
    """_inverse of the slots' columns on one side, 0 their rho classes and 1
    their fixed parts (FixedTuples), made once per space for slots whose
    evaluations there are the same objects: _classes and _eval_values keep
    those as long as the space, and the entry its own, so their ids are a
    sound key and no slot meets a stale inverse."""
    values = [space.eval_trusted(m)[side] for m in slots]
    key = tuple(map(id, values))
    entry = space._inverses.get(key)
    if entry is None:
        entry = space._inverses[key] = (
            values, _inverse([v.parts if side else (v,) for v in values]))
    return entry[1]


def _lines(grading: GradingElement, monos: tuple[Mono, ...],
           degrees: tuple[int, ...]) -> list[tuple[Mono, int, int, PointScalar | None]]:
    """(slot, a, b, template) per slot whose gap (a, b) to `grading` lies on
    a = 0 or a + b = 0, the only lines where the point ring has a class of
    infinite order, in slot order; the template is scalar_dressing's, read
    once per gap (_template), or None.  This is a table solve's one scan:
    a slot on a + b = 0 is on the rho line and one on a = 0 on the fixed
    line (_read_coordinates).  `monos` and their flat (one, sigma) `degrees`
    come from coset_table or section_family, so a slot off the lines drops
    out on two int tests.
    """
    one, sigma = grading.one, grading.sigma
    out = []
    pairs = iter(degrees)
    for mono, slot_one, slot_sigma in zip(monos, pairs, pairs):
        a, b = one - slot_one, sigma - slot_sigma
        if not a or not a + b:
            out.append((mono, a, b, _template(a, b)))
    return out


@lru_cache(maxsize=None)
def _template(a: int, b: int) -> PointScalar | None:
    """scalar_dressing's template for an on-line gap (a, b), one per gap."""
    dressed = scalar_dressing((a, b))
    return dressed and dressed[0]


def _dressed_slots(grading: GradingElement, monos: tuple[Mono, ...],
                   degrees: tuple[int, ...]) -> list[tuple[PointScalar, Mono]]:
    """(template, slot) per slot dressed to `grading` (see _lines)."""
    return [(template, mono) for mono, _, _, template in _lines(grading, monos, degrees)
            if template is not None]


def _equations(space: SpacePresentation, candidates: list[tuple[PointScalar, Mono]]):
    """The columns of the candidates' weighted evaluations, in one scatter pass.

    Returns (unknowns, table): per unknown (candidate, rho weight, fix
    weight), where a + b*g of a plain Burnside template is a, weighted
    (1, 1), and b, weighted (2, 0); and a row of length len(unknowns) per
    (component, basis key) that some unknown supports, component 0 being
    rho and ci > 0 fixed part ci - 1.
    """
    unknowns: list[tuple[int, int, int]] = []
    for k, (template, _) in enumerate(candidates):
        unknowns += [(k, 1, 1), (k, 2, 0)] if template.is_burnside() else [(k, 1, 1)]
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
    return unknowns, table


def _coordinates(inverse: Inverse, classes: Iterable[NonequivClass], n: int) -> list[int] | None:
    """A target's coordinates on n columns, a class per ring, from their
    inverse; None when a key of the target is off the columns' rows."""
    out = [0] * n
    for ci, cls in enumerate(classes):
        for key, c in cls.coeffs.items():
            entries = inverse.get((ci, key))
            if entries is None:
                return None
            for i, d in entries:
                out[i] += d * c
    return out


def _read_coordinates(space: SpacePresentation,
                      lines: list[tuple[Mono, int, int, PointScalar | None]],
                      rho_target: NonequivClass,
                      fix_target: FixedTuple) -> tuple | None:
    """A table solve's (template, slot, coefficient) records, one per dressed
    slot of `lines` (_lines), in slot order with zeros included, read off
    the target's coordinates y on the rho line (a + b = 0) and z on the
    fixed line (a = 0); None when the read cannot place the target, which
    the lattice then decides and words.  Each line's inverse (_line_inverse)
    has exactly the line's rows, and a target key off them is off the span.
    The template 1 has multipliers 1, so a + b*g gives a = z, b = (y - z)/2;
    any other has one zero multiplier, its slot lies on the other line only
    and c takes one division; an undressed slot needs y = z = 0.  None also
    when a line has no inverse, or a division leaves a remainder."""
    rho_slots, fix_slots = [], []
    for mono, a, b, _ in lines:
        if not a + b:
            rho_slots.append(mono)
        if not a:
            fix_slots.append(mono)
    rho_inverse = _line_inverse(space, 0, rho_slots)
    fix_inverse = _line_inverse(space, 1, fix_slots)
    if rho_inverse is None or fix_inverse is None:
        return None
    y = _coordinates(rho_inverse, (rho_target,), len(rho_slots))
    z = _coordinates(fix_inverse, fix_target.parts, len(fix_slots))
    if y is None or z is None:
        return None
    ys, zs = iter(y), iter(z)
    records = []
    for mono, a, b, template in lines:
        yi = 0 if a + b else next(ys)
        zi = 0 if a else next(zs)
        if template is None:
            if yi or zi:
                return None
        elif template.is_burnside():
            if (yi - zi) % 2:
                return None
            records.append((template, mono, BurnsideScalar(zi, (yi - zi) // 2)))
        else:
            r = template.rho_multiplier()
            n, d = (yi, r) if r else (zi, template.fix_multiplier())
            if n % d:
                return None
            records.append((template, mono, n // d))
    return tuple(records)


def _lattice_coefficients(space: SpacePresentation, grading: GradingElement,
                          candidates: list[tuple[PointScalar, Mono]],
                          rho_target: NonequivClass,
                          fix_target: FixedTuple) -> tuple:
    """The candidates' records, as solve_with_coefficients returns them, from
    the integer solve of _equations' rows plus a zero row per key that only
    the target supports; it decides and words every failure, and a non-zero
    kernel raises AmbiguousSolveError, naming the free candidates."""
    unknowns, table = _equations(space, candidates)
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
    return tuple((template, mono, BurnsideScalar(next(values), next(values))
                  if template.is_burnside() else next(values)) for template, mono in candidates)


def solve_with_coefficients(space: SpacePresentation, grading: GradingElement,
                            rho_target: NonequivClass, fix_target: FixedTuple,
                            ansatz: Iterable[tuple[PointScalar, Mono]] | None = None):
    """Solve (rho_target, fix_target) = sum_i c_i * template_i * mono_i over Z.

    The targets must be classes of the space's underlying and fixed rings,
    or ValueError.  Without an ansatz the candidates are the coset-table
    slots of `grading`, each dressed with the unique point-ring scalar
    filling the degree gap, one object per gap (_lines, _template).  An
    ansatz comes from outside and passes RingElement.from_terms first.  A
    coefficient is a + b*g in the Burnside ring, two integer unknowns, where
    the template is a plain Burnside scalar, and an integer otherwise.
    Returns (element, records, ambiguous) with one (template, mono,
    coefficient) record per candidate, in candidate order, zeros included;
    each non-zero coefficient is its term, by PointScalar.scale, as no two
    candidates that solve share a monomial.  The flag is always False, and
    stays for callers that unpack it.

    A table solve reads its records off the line inverses in one pass
    (_read_coordinates), which places the target or declines.  Only then
    are candidates listed: an ansatz, and every target the read declines,
    go to the lattice (_lattice_coefficients), which decides and words
    every failure; a non-zero kernel raises AmbiguousSolveError.

    A slot whose gap is the degree of a 2-torsion class e^k*xi^j has no
    candidate: neither map sees the class, so a re-solve drops such a term.
    """
    if rho_target.ring is not space.underlying or [  # rings compare by identity
            part.ring for part in fix_target.parts] != [*space.fixed_rings]:
        raise ValueError(f"the targets in degree {grading} are not classes of {space.name}")
    records = None
    if ansatz is None:
        lines = _lines(grading, *space.coset_table(grading))
        records = _read_coordinates(space, lines, rho_target, fix_target)
        if records is None:
            candidates = [(template, mono) for mono, _, _, template in lines
                          if template is not None]
    else:
        candidates = list(ansatz)
        RingElement.from_terms(space, candidates, grading)  # outside data: the door checks it
    if records is None:
        if not candidates:
            if rho_target or fix_target:
                raise UnsolvableError(f"nothing lives in degree {grading} of {space.name}")
            return RingElement.zero(space, grading), (), False
        records = _lattice_coefficients(space, grading, candidates, rho_target, fix_target)
    terms = {mono: template.scale(coeff) for template, mono, coeff in records if coeff}
    return RingElement(space, grading, terms), records, False


def same_class(space: SpacePresentation, grading: GradingElement, pair, other) -> bool:
    """Whether two evaluation pairs are one class of `grading`: where
    evaluation decides the degree (_evaluation_decides) both normal forms
    are the table solve of the pair, which must place it; elsewhere the
    pair does not pin the class down, and that is an error."""
    if not _evaluation_decides(space, grading):
        raise AmbiguousSolveError(
            f"evaluation does not decide degree {grading} of {space.name}")
    if pair != other:
        return False
    solve_with_coefficients(space, grading, *pair)  # places the pair, or raises
    return True


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


def _singular_sides(space: SpacePresentation, key: tuple[int, ...]) -> list[str]:
    """The sides on which a coset table's undressed slots are not a Z-basis:
    "rho" of H*(X), "fixed" of the fixed components' cohomology.

    A side is decided line by line, on the lines a table solve reads
    (_read_coordinates): the slots of one one + sigma on the rho side, of
    one one on the fixed side.  It is a basis when each line is decided, a
    lone slot by its signed row (_signed_row) and a longer line by its
    inverse (_inverse, keyed by the line's rows), and the rows of all lines
    are distinct and number the rank: the matrix is then a direct sum of
    unimodular blocks, so the side fails wherever the whole table's matrix
    has no inverse.  Classes are homogeneous, so on a sound table lines
    share no row; a slot whose class lies off its degree repeats one.  Most
    lines hold one slot, and the slot matrices have blocks of at most 4
    columns on every sampled table, so this is linear in the number of
    slots.  No line's inverse is kept.
    """
    slots, degrees = space.coset_table(key)
    rho_lines: dict[int, list] = {}
    fix_lines: dict[int, list] = {}
    pairs = iter(degrees)
    for m, one, sigma in zip(slots, pairs, pairs):
        rho, fix = space.eval_trusted(m)
        rho_lines.setdefault(one + sigma, []).append((rho,))
        fix_lines.setdefault(one, []).append(fix.parts)
    bad = []
    for side, rank, lines in (("rho", space.underlying.rank(), rho_lines),
                              ("fixed", sum(ring.rank() for ring in space.fixed_rings),
                               fix_lines)):
        rows: set[tuple[int, Key] | None] = set()  # an undecided line adds None
        for columns in lines.values():
            rows.update((_signed_row(columns[0]),) if len(columns) == 1
                        else _inverse(columns) or (None,))
        if None in rows or not len(rows) == len(slots) == rank:
            bad.append(side)
    return bad


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

    def record_solved(name: str, check):
        """Record check(); a product or solve that cannot be made fails it."""
        try:
            record(name, check())
        except UnsolvableError as err:
            record(name, False, str(err))

    for rel in space.relations:
        lhs = RingElement.from_terms(space, rel.lhs)
        rhs = RingElement.from_terms(space, rel.rhs, grading=lhs.grading)
        record_solved(f"relation:{rel.name}",
                      lambda: same_class(space, lhs.grading, lhs.evaluate(), rhs.evaluate()))

    for rule in space.rules:
        lhs = RingElement.from_mono(space, rule.lhs)
        rhs = RingElement.from_terms(space, rule.rhs, grading=lhs.grading)
        record(f"rule:{rule.name}", lhs.evaluate() == rhs.evaluate())

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
        # ansatz (e.g. a zeta_1*c_chi_omega term), so compare evaluation pairs.
        record_solved(f"pushforward:{name}", lambda: same_class(
            space, expected.grading, solve_with_coefficients(
                space, expected.grading, *space.pushforward_targets[name],
                ansatz=space.pushforward_ansatz)[0].evaluate(), expected.evaluate()))

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
        record("coset-tables", not bad, ", ".join(bad))

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
    x can still lie in the ideal.  Where evaluation decides z's degree
    (_evaluation_decides), z is zero when its pair is, and both normal
    forms are the table solve of that pair, which the family solve places
    exactly: z is a member when that solve succeeds, and no normal form is
    made.
    """
    if space.annihilator_pair is None:
        raise ValueError(
            f"{space.name}: the annihilator law does not hold (the complementary "
            "section is not the annihilator of x); only Q_BD and Q22 support it")
    _, partner = space.annihilator_pair
    partner_elt = RingElement.from_mono(space, space.mono({partner: 1}))
    killed = multiply(partner_elt, z).is_zero()
    decides = _evaluation_decides(space, z.grading)
    target = None if decides else normal_form(z)
    zero = not any(z.evaluate()) if decides else target.is_zero()
    if zero:
        return killed, True
    family = _dressed_slots(z.grading, *space.section_family(z.grading))
    try:
        solved = solve_with_coefficients(space, z.grading, *z.evaluate(),
                                         ansatz=family)[0]
    except UnsolvableError:
        return killed, False  # the evaluation pair is outside the family's span
    return killed, decides or normal_form(solved) == target
