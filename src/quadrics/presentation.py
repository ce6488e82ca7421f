"""Presentations of the C2-spaces whose cohomology the engine computes.

A SpacePresentation bundles, for one space,

  * the grading group (one label per fixed-set component),
  * truncated integer cohomology rings for the underlying space and for
    every fixed component, together with the evaluation (restriction)
    of each generating letter into them,
  * the letters' gradings and divisibility credits -- the set of
    component classes (zetas, which evaluation reads as masks) whose
    negative powers a letter's presence licenses in an admissible
    monomial,
  * an ordered list of grading-preserving rewrite rules, the stated
    relations that no rule already says in the same form, unit pairs and
    section/pushforward data,
  * additive coset tables: a finite free-module basis over the point
    ring for every coset of the RO(C2)-plus-base-class grading lattice,
  * a fibre map writing the letters z0 z1 cw cxw divq of the bundle with
    fibre P(C + C^q sigma) over BU1 in the space's own letters; the
    bundle's reduction rules and coset slots are stated once and lifted.

Where divq exists, its square is the first rule, divided-square, in one
closed form per family; verify checks it against evaluation.

Six families are available through load_presentation:

  BU1      the classifying space of complex lines (no coset tables;
           evaluation only, up to c^31),
  X1q      the projectivized bundle over it with fibre P(C + C^q sigma),
  Q_BD     the odd-dimensional smooth quadrics containing X1q,
  Q_DD     the even-dimensional ones (two disjoint section families),
  Gr222    the Grassmannian of lines in P3, presented as Q_DD at q = 2
           with the Pluecker letters renamed,
  Q22      the split four-fixed-point quadric surface P1 x P1.

Everything downstream -- normal forms, coefficient solving,
verification, the line count -- is generic over this data.
"""

from __future__ import annotations

from functools import lru_cache, partial
from typing import Iterable, Mapping

from .burnside import ONE_MINUS_KAPPA
from .grading import GradingElement, GradingGroup
from .nonequiv import NonequivClass, TruncatedRing
from .printing import power_product
from .scalars import PointScalar

Mono = tuple[tuple[str, int], ...]
Terms = tuple[tuple[PointScalar, Mono], ...]

MAX_Q = 1024

_ONE = PointScalar.integer(1)
_E2 = PointScalar.e_power(2)
_XI = PointScalar.xi_power(1)
_TAU = PointScalar.tau_power(1)
_K1 = PointScalar.kappa_negative(1)  # e^-2 kappa
_UNIT_MINUS_KAPPA = PointScalar.from_burnside(ONE_MINUS_KAPPA)

# The fibre map of BU1 and X1q, which carry the bundle letters themselves.
_IDENTITY_FIBRE = {name: (name,) for name in ("z0", "z1", "cw", "cxw", "divq")}


class NoFiniteTableError(ValueError):
    """The coset has no finite table: a deep coset of the bare bundle, or BU1."""


class FixedTuple:
    """One cohomology class per fixed-set component, componentwise ring ops."""

    __slots__ = ("parts",)

    def __init__(self, parts: Iterable[NonequivClass]):
        self.parts = tuple(parts)

    @classmethod
    def unit(cls, rings: Iterable[TruncatedRing]) -> "FixedTuple":
        return cls(NonequivClass.unit(r) for r in rings)

    def __add__(self, other: "FixedTuple") -> "FixedTuple":
        return FixedTuple(a + b for a, b in zip(self.parts, other.parts))

    def __mul__(self, other) -> "FixedTuple":
        if isinstance(other, int):
            return FixedTuple(a * other for a in self.parts)
        return FixedTuple(a * b for a, b in zip(self.parts, other.parts))

    __rmul__ = __mul__

    def __bool__(self) -> bool:
        return any(self.parts)

    def __eq__(self, other) -> bool:
        return isinstance(other, FixedTuple) and self.parts == other.parts

    def __repr__(self):
        return f"FixedTuple({self!s})"

    def __str__(self):
        return "(" + ", ".join(str(p) for p in self.parts) + ")"


class Letter:
    """A multiplicative generator: grading, evaluation, divisibility credits."""

    __slots__ = ("name", "grading", "rho", "fix", "credits")

    def __init__(self, name: str, grading: GradingElement, rho: NonequivClass,
                 fix: FixedTuple, credits: Iterable[str] = ()):
        self.name = name
        self.grading = grading
        self.rho = rho
        self.fix = fix
        self.credits = frozenset(credits)

    def __repr__(self):
        return f"Letter({self.name})"


class RewriteRule:
    """lhs-divisible monomials M rewrite to sum_i scalar_i * (M - lhs + delta_i).

    Rules preserve the grading.  A rule fires only when every monomial it
    produces is admissible; otherwise the next rule in order is tried.
    """

    __slots__ = ("name", "lhs", "rhs")

    def __init__(self, name: str, lhs: Mono, rhs: tuple[tuple[PointScalar, Mono], ...]):
        self.name = name
        self.lhs = lhs
        self.rhs = rhs

    def __repr__(self):
        return f"RewriteRule({self.name})"


class Relation:
    """A stated ring relation, kept in its quotable two-sided form."""

    __slots__ = ("name", "lhs", "rhs")

    def __init__(self, name: str, lhs: Terms, rhs: Terms):
        self.name = name
        self.lhs = lhs
        self.rhs = rhs

    def __repr__(self):
        return f"Relation({self.name})"


# One tuple per (letter, exponent) pair: every monomial built here holds
# these, so the monomials that tables and caches keep share their pairs.
# Equal tuples are interchangeable, so sharing them across spaces changes
# no result; the table grows with the distinct pairs only.
_PAIRS: dict[tuple[str, int], tuple[str, int]] = {}


def _ordered(order: tuple[str, ...], exps: Mapping[str, int]) -> Mono:
    """The monomial of known letters' exponents, in letter order, built from
    the shared pairs; a name outside `order` is not checked, and drops out."""
    out = []
    for name in order:
        exp = exps.get(name)
        if exp:
            pair = (name, exp)
            out.append(_PAIRS.setdefault(pair, pair))
    return tuple(out)


def _mono_of(order: tuple[str, ...], exps: Mapping[str, int], where="this presentation") -> Mono:
    """The monomial of declared or parsed exponents: an unknown letter raises."""
    for name in exps:
        if name not in order:
            raise ValueError(f"{name!r} is not a generator of {where}")
    return _ordered(order, exps)


def mono_mul(a: Mono, b: Mono, order: tuple[str, ...]) -> Mono:
    """The product of two monomials in the letters of `order`."""
    out = dict(a)
    for name, exp in b:
        out[name] = out.get(name, 0) + exp
    return _ordered(order, out)


def _lift(fibre: Mapping[str, tuple[str, ...]], slot: Mapping[str, int],
          extra: Mapping[str, int] | None = None) -> dict[str, int]:
    """The exponents of a monomial over the fibre letters z0 z1 cw cxw divq,
    lifted to the space's letters, times `extra`."""
    out = dict(extra or {})
    for name, exp in slot.items():
        for own in fibre[name]:
            out[own] = out.get(own, 0) + exp
    return out


def mono_str(m: Mono) -> str:
    return power_product(m) or "1"


class SpacePresentation:
    __slots__ = (
        "name", "family", "q", "group", "underlying", "fixed_rings",
        "letters", "letter_order", "invertible", "rules", "relations",
        "units", "lemma_ansatz", "fibre",
        "pushforwards", "pushforward_targets", "pushforward_ansatz",
        "identifications", "annihilator_pair",
        "_table_cache", "_eval_cache", "_powers", "_classes", "_products",
        "_eval_values", "_unit_classes", "_zero_classes", "_masks", "_fibre_block",
        "_inverses",
    )

    def __init__(self, name, family, q, group, underlying, fixed_rings,
                 letters, invertible=(), rules=(), relations=(),
                 units=(), lemma_ansatz=None,
                 fibre=_IDENTITY_FIBRE, pushforwards=None, pushforward_targets=None,
                 pushforward_ansatz=None, identifications=None,
                 annihilator_pair=None):
        self.name = name
        self.family = family
        self.q = q
        self.group = group
        self.underlying = underlying
        self.fixed_rings = tuple(fixed_rings)
        self.letters = dict(letters)
        self.letter_order = tuple(self.letters)  # builders declare letters in print order
        self.invertible = frozenset(invertible)
        self.rules = tuple(rules)
        self.relations = tuple(relations)
        self.units = tuple(units)
        self.lemma_ansatz = lemma_ansatz
        self.fibre = fibre
        self.pushforwards = dict(pushforwards or {})
        self.pushforward_targets = dict(pushforward_targets or {})
        self.pushforward_ansatz = pushforward_ansatz
        self.identifications = dict(identifications or {})
        self.annihilator_pair = annihilator_pair
        # coset key -> (slots, their flat (one, sigma) degrees); see coset_table
        self._table_cache = {}
        # The evaluation caches (see eval_trusted).  Every class they hold is
        # the one of its value in _classes, which keeps it as long as the
        # space, so no other object can take its id: ids are sound keys.
        # monomial -> its (rho, FixedTuple) pair
        self._eval_cache = {}
        # (letter, exp) -> its power's rho, then its fixed parts; None marks a unit
        self._powers = {}
        # (ring, coefficients) -> the one class of that value
        self._classes = {}
        # (id(a), id(b)) -> a*b
        self._products = {}
        # (id(rho), *ids of the fixed parts) -> the one pair of those classes
        self._eval_values = {}
        # (ids of a line's slot values on one side) -> (those values, the
        # line's inverse) that solves read (see engine._line_inverse)
        self._inverses = {}
        self._unit_classes = tuple(map(self._shared, (
            NonequivClass.unit(underlying), *FixedTuple.unit(self.fixed_rings).parts)))
        self._zero_classes = tuple(self._shared(NonequivClass.zero(r))
                                   for r in (underlying, *self.fixed_rings))
        # zeta -> a bit per fixed part it kills, bit i for _unit_classes[i]
        rho_unit, *part_units = self._unit_classes
        self._masks = {name: sum(2 << i for i, v in enumerate(letter.fix.parts) if not v)
                       for name, letter in self.letters.items()
                       if letter.rho == rho_unit
                       and all(not v or v == u for v, u in zip(letter.fix.parts, part_units))}
        divided = self.invertible.union(*(letter.credits for letter in self.letters.values()))
        if not divided <= self._masks.keys():
            raise AssertionError(f"{self.name}: a credited or invertible letter is no zeta: "
                                 f"{', '.join(sorted(divided - self._masks.keys()))}")
        # _block's fibre data: q, a lifted z1's coset key (the step), and the
        # (one, sigma) and fibre key f of each fibre letter's lift, whose
        # coset key must be f steps; _block grades its slots from these
        lifts = {name: self._int_grading(tuple((own, 1) for own in owns))
                 for name, owns in fibre.items() if all(own in self.letters for own in owns)}
        keys = {name: tuple(w - omega[0] for w in omega[1:])
                for name, (_, _, omega) in lifts.items()}
        step = keys["z1"]
        for name, key in keys.items():
            if key != tuple(key[-1] * s for s in step):
                raise AssertionError(f"{self.name}: fibre letter {name} lifts to coset key "
                                     f"{key}, off its fibre coset along z1's {step}")
        self._fibre_block = (1 if q is None else q, step, {
            name: (one, sigma, keys[name][-1]) for name, (one, sigma, _) in lifts.items()})

    def __repr__(self):
        return f"SpacePresentation({self.name}, q={self.q})"

    # --- monomials ---

    def mono(self, exps: Mapping[str, int] | None = None, **kw: int) -> Mono:
        """A monomial from letter exponents; an unknown letter raises ValueError."""
        merged = dict(exps or {})
        for name, exp in kw.items():
            merged[name] = merged.get(name, 0) + exp
        return _mono_of(self.letter_order, merged, self.name)

    def mono_grading(self, m: Mono) -> GradingElement:
        """The sum of the letters' gradings; letter gradings are canonical
        (no last W), so the sum is too."""
        one, sigma, omega = self._int_grading(m)
        return GradingElement(self.group, one, sigma, tuple(omega))

    def _int_grading(self, m: Mono) -> tuple[int, int, list[int]]:
        """mono_grading's one, sigma and W coordinates, on ints."""
        one = sigma = 0
        omega = [0] * len(self.group.labels)
        for name, exp in m:
            g = self.letters[name].grading
            one += exp * g.one
            sigma += exp * g.sigma
            for i, w in enumerate(g.omega):
                omega[i] += exp * w
        return one, sigma, omega

    def is_admissible(self, m: Mono) -> bool:
        """Negative powers must be invertible or licensed by a present letter."""
        licensed: set[str] = set()
        for name, exp in m:
            if exp > 0:
                licensed |= self.letters[name].credits
        for name, exp in m:
            if exp < 0 and name not in self.invertible and name not in licensed:
                return False
        return True

    def _refuse(self, m: Mono, why: str, error: type[Exception] = ValueError) -> Exception:
        return error(f"monomial {mono_str(m)} in degree {self.mono_grading(m)} "
                     f"of {self.name}: {why}")

    # --- evaluation ---

    def eval_mono(self, m: Mono) -> tuple[NonequivClass, FixedTuple]:
        """(rho, fixed parts) of a monomial from outside: an inadmissible one
        is not a class, and raises ValueError; else see eval_trusted."""
        if not self.is_admissible(m):
            raise self._refuse(m, "not admissible, an unlicensed negative power")
        return self.eval_trusted(m)

    def eval_trusted(self, m: Mono) -> tuple[NonequivClass, FixedTuple]:
        """(rho, fixed parts) of a monomial the caller knows is admissible:
        a table slot (coset_table checks them) or a term of an element.

        A zeta (a letter restricting to 1 underlying and to 0 or 1 on each
        fixed component) is a mask: every non-zero power of it, negative
        ones included, restricts as it does.  So m's pair is the product of
        the cached powers of its other letters (its core), with each fixed
        part that a zeta of m kills set to that ring's shared zero.  Only
        zetas are credited or invertible (checked at load), so only they go
        negative.  A unit power is marked None and skipped, and a ring that
        no other factor reaches takes its unit, so nothing is ever
        multiplied by 1.  Every class is the one of its value (_shared),
        each product of two is made once (_product), and monomials whose
        classes are the same objects share one pair, so the caches hold
        references, not copies.  A product past a window ring's last power
        (BU1) raises RuntimeError, naming the monomial, its degree and the
        space before the ring's own text.
        """
        cached = self._eval_cache.get(m)
        if cached is not None:
            return cached
        masks, dead = self._masks, 0
        acc: list[NonequivClass | None] = [None] * len(self._unit_classes)
        try:
            for pair in m:
                mask = masks.get(pair[0])
                if mask is not None:
                    dead |= mask
                    continue
                power = self._powers.get(pair)
                if power is None:
                    power = self._power(*pair)
                for i, p in enumerate(power):
                    if p is not None and not dead >> i & 1:
                        acc[i] = p if acc[i] is None else self._product(acc[i], p)
        except RuntimeError as err:
            raise self._refuse(m, str(err), RuntimeError) from err
        rho, *parts = (zero if dead >> i & 1 else u if a is None else a for i, (a, u, zero)
                       in enumerate(zip(acc, self._unit_classes, self._zero_classes)))
        key = (id(rho), *map(id, parts))
        result = self._eval_values.get(key)
        if result is None:
            result = self._eval_values[key] = (rho, FixedTuple(parts))
        self._eval_cache[m] = result
        return result

    def _power(self, name: str, exp: int) -> tuple[NonequivClass | None, ...]:
        """The restrictions of name^exp for a letter that is no zeta and an
        exp >= 1, shared, with None for a unit, cached.

        It is the letter's highest cached power below exp times the letter,
        one _product per ring and step, each step cached.  It climbs in a
        loop, not by recursion: q = 1024 asks for powers in the thousands.
        A climb out of a window ring (BU1) raises the error of the direct
        power v ** exp instead, as before the climb: cw^40 names c^40, not
        the c^32 where the climb leaves the window.
        """
        letter, powers, units = self.letters[name], self._powers, self._unit_classes
        classes = (letter.rho, *letter.fix.parts)
        first = powers[name, 1] = powers.get((name, 1)) or tuple(
            None if v == u else self._shared(v) for v, u in zip(classes, units))
        top = max(exp - 1, 1)
        while (name, top) not in powers:
            top -= 1
        power = powers[name, top]
        try:
            for k in range(top + 1, exp + 1):  # a step may give the unit, as (-1)^2
                power = powers[name, k] = tuple(
                    b if p is None else p if b is None
                    else None if (product := self._product(p, b)) is u else product
                    for p, b, u in zip(power, first, units))
        except RuntimeError:
            for v in classes:
                v ** exp  # raises, naming the power asked for
            raise
        return power

    def _shared(self, cls: NonequivClass) -> NonequivClass:
        """The one class of cls's value that the evaluation caches hold."""
        return self._classes.setdefault((cls.ring, frozenset(cls.coeffs.items())), cls)

    def _product(self, a: NonequivClass, b: NonequivClass) -> NonequivClass:
        """a*b, made once per space, for classes a and b of _classes.  Their
        ids are a sound key: _classes keeps both as long as the space, so
        no other object can take those ids while this memo lives."""
        key = (id(a), id(b))
        product = self._products.get(key)
        if product is None:
            product = self._products[key] = self._shared(a * b)
        return product

    # --- coset tables ---

    def coset_basis(self, key) -> tuple[Mono, ...]:
        """The slots of one coset's table: its free basis over the point ring."""
        return self.coset_table(key)[0]

    def coset_table(self, key) -> tuple[tuple[Mono, ...], tuple[int, ...]]:
        """A coset's slots, and their (one, sigma) degrees from _block as one
        flat int tuple in slot order; the key fixes the rest of each grading.

        A table is its blocks (see _block) in prefix order: X1q has one,
        with the empty prefix.  Else, per zeta pair (a, b, e) of _zeta_pairs,
        the zeta prefix takes b^e if e >= 0, else a^-e, and the section
        prefix the other letter, inverted, times the letter whose credits
        are exactly its zetas: on a quadric z11^m with z00^-m*x, or z00^-m
        with z11^m*xp; on Q22 x, x1, x2 or x0 for the signs of e (+, +),
        (-, +), (+, -) and (-, -).
        """
        key = _coset_key(key)
        cached = self._table_cache.get(key)
        if cached is not None:
            return cached
        if self.family == "BU1":
            raise NoFiniteTableError("the classifying space carries no finite coset tables")
        self._check_width(key)
        zeta, section = {}, {}
        for a, b, e in self._zeta_pairs(key):
            zeta[b if e >= 0 else a] = abs(e)
            section[a if e >= 0 else b] = -abs(e)
        prefixes = [zeta]
        if section:
            letter = next(name for name, letter in self.letters.items()
                          if letter.credits == section.keys())
            prefixes.append({**section, letter: 1})
        graded = [slot for prefix in prefixes for slot in self._block(key, prefix)]
        for mono, _, _ in graded:
            if not self.is_admissible(mono):
                raise AssertionError(f"inadmissible slot {mono_str(mono)} at {key}")
        table = self._table_cache[key] = (tuple(mono for mono, _, _ in graded), tuple(
            d for _, one, sigma in graded for d in (one, sigma)))
        return table

    def section_family(self, key) -> tuple[tuple[Mono, ...], tuple[int, ...]]:
        """The admissible x-multiples that span the section ideal in a coset,
        with their degrees from _block, as coset_table gives a table's.

        They are the admissible slots of the coset's x block, whose prefix
        is a^-e per zeta pair (a, b) (z00^-m*x on a quadric, z00^-m*z01^-n*x
        on Q22), whatever the signs of the e.  Where every e >= 0 that is
        exactly the table's section block; elsewhere the table writes the
        same classes on the slots of another section letter.
        """
        key = _coset_key(key)
        if "x" not in self.letters:
            raise ValueError(f"{self.name} has no section class x")
        self._check_width(key)
        prefix = {a: -e for a, _, e in self._zeta_pairs(key)}
        family = [s for s in self._block(key, {**prefix, "x": 1}) if self.is_admissible(s[0])]
        return (tuple(mono for mono, _, _ in family),
                tuple(d for _, one, sigma in family for d in (one, sigma)))

    def _check_width(self, key: tuple[int, ...]) -> None:
        width = len(self.group.labels) - 1
        if len(key) != width:
            raise ValueError(f"expected a {width}-component coset key, got {key}")

    def _zeta_pairs(self, key: tuple[int, ...]) -> list[tuple[str, str, int]]:
        """(a, b, e) per zeta pair (a, b) that a fibre letter lifts to --
        (z00, z11) from z0, and on Q22 also (z01, z10) from z1 -- with
        e = W_b - W_a on the key.  The key holds each W_c offset from the
        first label's, and z<c> has grading W_c."""
        offset = dict(zip(self.group.labels, (0, *key)))
        pairs = (self.fibre[name] for name in ("z0", "z1"))
        return [(a, b, offset[b[1:]] - offset[a[1:]]) for a, b in
                (pair for pair in pairs if len(pair) == 2)]

    def _block(self, key: tuple[int, ...], prefix: Mapping[str, int]
               ) -> list[tuple[Mono, int, int]]:
        """(slot, one, sigma) per fibre slot at offset k, lifted and
        multiplied by `prefix`.

        Each lifted z1 adds z1's coset key, whose last component is 1, so k
        is what the prefix leaves of the key's last component, and the whole
        key must be the prefix's key plus k lifted z1's.  Grading is linear:
        a slot's (one, sigma) is the prefix's plus its fibre exponents times
        the lifts' (_fibre_block), and it lies on the coset iff the same sum
        of the lifts' fibre keys is k.  The fibre is P(C + C^q sigma), with
        q = 1 on Q22; its divided class exists when its lift's letters do.
        """
        q, step, lifts = self._fibre_block
        one, sigma, omega = self._int_grading(self.mono(prefix))
        base = tuple(w - omega[0] for w in omega[1:])
        k = key[-1] - base[-1]
        if key != tuple(b + k * s for b, s in zip(base, step)):
            raise AssertionError(f"incoherent coset key {key}")
        block = []
        for slot in _x1q_slots(k, q, has_divq="divq" in lifts):
            mono = _ordered(self.letter_order, _lift(self.fibre, slot, prefix))
            slot_one, slot_sigma, fibre_key = one, sigma, 0
            for name, exp in slot.items():
                lift_one, lift_sigma, lift_key = lifts[name]
                slot_one, slot_sigma = slot_one + exp * lift_one, slot_sigma + exp * lift_sigma
                fibre_key += exp * lift_key
            if fibre_key != k:
                raise AssertionError(f"slot {mono_str(mono)} lands off-coset {key}")
            block.append((mono, slot_one, slot_sigma))
        return block

    # --- serialization ---

    def to_json(self) -> dict:
        return {
            "schema": "quadrics/presentation/1",
            "space": self.name,
            "q": self.q,
            "components": list(self.group.labels),
            "underlying_ring": self.underlying.name,
            "fixed_rings": [r.name for r in self.fixed_rings],
            "letters": [
                {
                    "name": name,
                    "grading": str(self.letters[name].grading),
                    "underlying": str(self.letters[name].rho),
                    "fixed": [str(p) for p in self.letters[name].fix.parts],
                    "licenses": sorted(self.letters[name].credits),
                }
                for name in self.letter_order
            ],
            "invertible": sorted(self.invertible),
            "relations": [r.name for r in self.relations],
            "rewrite_rules": [r.name for r in self.rules],
        }


def _coset_key(key: GradingElement | tuple[int, ...]) -> tuple[int, ...]:
    """A coset key from a grading, or the key tuple itself."""
    return key.coset_key() if isinstance(key, GradingElement) else key


def _x1q_slots(k: int, q: int, *, has_divq: bool) -> list[dict[str, int]]:
    """Basis slots of one fibre-bundle coset, over names z0 z1 cw cxw divq.

    For q = 0 the bundle is a fixed section and the second component class
    is invertible, so every coset is a single translated slot.  For q >= 1
    there are q + 1 slots; the last one needs the divided class divq as
    soon as k <= -q, which only exists inside an ambient quadric.
    """
    if q == 0:
        return [{"z1": k}] if k else [{}]
    slots = []
    for j in range(q + 1):
        if j == q and k <= -q:
            if not has_divq:
                raise NoFiniteTableError(
                    f"coset {k} of the q={q} bundle has no finite table "
                    "(its last slot is a divided class of the ambient quadric)")
            slots.append({"z1": k + q, "divq": 1})
            continue
        a = -k - j
        if a >= 0:
            slots.append({"z0": a, "cxw": j})
        elif j == 0:
            slots.append({"z1": k})
        else:
            slots.append({"z0": a + 2, "cw": 1, "cxw": j - 1})
    return slots


# --------------------------------------------------------------------------
# space builders
# --------------------------------------------------------------------------

def _cls(ring: TruncatedRing, *exps: int) -> NonequivClass:
    return NonequivClass.from_exponents(ring, tuple(exps))


def _point_profile(rings, *values) -> FixedTuple:
    """A fixed tuple whose entries are integers or ready-made classes."""
    parts = []
    for ring, v in zip(rings, values):
        if isinstance(v, NonequivClass):
            parts.append(v)
        elif v == 0:
            parts.append(NonequivClass.zero(ring))
        else:
            parts.append(NonequivClass.unit(ring) * v)
    return FixedTuple(parts)


def _terms(order: tuple[str, ...], *pairs) -> Terms:
    return tuple((scalar, _mono_of(order, exps)) for scalar, exps in pairs)


def _fibre_rules(fibre: Mapping[str, tuple[str, ...]],
                 order: tuple[str, ...]) -> tuple[RewriteRule, RewriteRule]:
    """The bundle's twisted Euler and diagonal square reductions, lifted."""
    lift = lambda exps: _mono_of(order, _lift(fibre, exps))
    return (
        RewriteRule("twisted-euler-reduction", lift({"z1": 1, "cxw": 1}),
                    ((_UNIT_MINUS_KAPPA, lift({"z0": 1, "cw": 1})), (_E2, ()))),
        RewriteRule("diagonal-square-reduction", lift({"z0": 2, "cw": 1}),
                    ((_XI, lift({"cxw": 1})), (_E2, lift({"z0": 1})))),
    )


def _zeta_letters(group: GradingGroup, und: TruncatedRing,
                  rings) -> tuple[dict[str, Letter], RewriteRule]:
    """The zeta letter z<c> of every fixed component c, and their merge rule.

    z<c> has grading W_c and restricts to 1 underlying, to 0 on c and to 1
    on every other component.  The W's sum to 2*sigma - 2, so the product
    of all the zetas is the orientation class xi.  Every letter order
    starts with these names, in label order.
    """
    letters = {}
    for label in group.labels:
        name = f"z{label}"
        fix = _point_profile(rings, *(int(other != label) for other in group.labels))
        letters[name] = Letter(name, group.omega(label), NonequivClass.unit(und), fix)
    merge = RewriteRule("zeta-merge", tuple((name, 1) for name in letters),
                        ((_XI, ()),))
    return letters, merge


def _build_bu1() -> SpacePresentation:
    # The classifying space itself: evaluation is polynomial algebra seen
    # through the window c^0..c^31, past which a product raises (c^n never
    # vanishes in H*(BU1)), and there are no finite coset tables.
    group = GradingGroup(("0", "1"))
    und, f0, f1 = (TruncatedRing.poly_window(32, name)
                   for name in ("poly-window", "poly-window-0", "poly-window-1"))
    rings = (f0, f1)
    c = _cls(und, 1)
    letters, zeta_merge = _zeta_letters(group, und, rings)
    # No divided classes: cw and cxw restrict to c, not 0, on components 0
    # and 1, so z0^-1*cw and z1^-1*cxw would have to restrict to c/0.
    letters["cw"] = Letter("cw", group.element(2, omega={"1": 1}), c,
                           _point_profile(rings, _cls(f0, 1), 1))
    letters["cxw"] = Letter("cxw", group.element(2, omega={"0": 1}), c,
                            _point_profile(rings, 1, _cls(f1, 1)))
    order = tuple(letters)
    t = lambda *pairs: _terms(order, *pairs)
    rules = (zeta_merge, *_fibre_rules(_IDENTITY_FIBRE, order))
    units = (
        ("unit-0", t((_ONE, {}), (-_K1, {"z0": 1, "cw": 1})),
         t((_UNIT_MINUS_KAPPA, {}), (_K1, {"z1": 1, "cxw": 1}))),
    )
    return SpacePresentation(
        "BU1", "BU1", None, group, und, rings, letters,
        rules=rules, units=units)


def _build_x1q(q: int) -> SpacePresentation:
    group = GradingGroup(("0", "1"))
    und = TruncatedRing.truncated_poly(q + 1)
    rings = (TruncatedRing.point(),
             TruncatedRing.truncated_poly(q) if q >= 1 else TruncatedRing.zero())
    c = _cls(und, 1)
    letters, zeta_merge = _zeta_letters(group, und, rings)
    rules = [zeta_merge]
    if q >= 1:
        letters["cw"] = Letter("cw", group.element(2, omega={"1": 1}), c,
                               _point_profile(rings, 0, 1), credits=("z0",))
        letters["cxw"] = Letter(
            "cxw", group.element(2, omega={"0": 1}), c,
            _point_profile(rings, 1, _cls(rings[1], 1)),
            credits=("z1",) if q == 1 else ())
        order = tuple(letters)
        rules += [RewriteRule("fibre-truncation",
                              _mono_of(order, {"cw": 1, "cxw": q}), ()),
                  *_fibre_rules(_IDENTITY_FIBRE, order)]
    return SpacePresentation(
        f"X1q(q={q})", "X1q", q, group, und, rings, letters,
        invertible=("z1",) if q == 0 else (), rules=rules)


def _build_quadric(family: str, q: int) -> SpacePresentation:
    """Common builder for the odd (BD) and even (DD/Gr) ambient quadrics."""
    gr = family == "Gr"
    cw, cxw = ("cl", "cxl") if gr else ("cw", "cxw")
    group = GradingGroup(("00", "11", "1"))
    if family == "BD":
        und = TruncatedRing.odd_quadric(q)
        mid = TruncatedRing.odd_quadric(q - 1)
        depth = q
    else:
        und = TruncatedRing.even_quadric(q)
        mid = TruncatedRing.proj_line_square() if gr else TruncatedRing.even_quadric(q - 1)
        depth = q - 1
    rings = (TruncatedRing.point(), TruncatedRing.point(), mid)

    omega_w = group.element(2, omega={"1": 1})
    chi = group.element(2, omega={"00": 1, "11": 1})
    sigma2 = group.element(0, 2)
    c_u, y_u = _cls(und, 1, 0), _cls(und, 0, 1)
    cq_u = _cls(und, q, 0)
    if gr:
        c_m, y_m = _cls(mid, 1, 0) + _cls(mid, 0, 1), _cls(mid, 0, 1)
    else:
        c_m, y_m = _cls(mid, 1, 0), _cls(mid, 0, 1)

    letters, zeta_merge = _zeta_letters(group, und, rings)
    letters[cw] = Letter(cw, omega_w, c_u, _point_profile(rings, 0, 0, 1),
                         credits=("z00", "z11", "z1") if q == 0 else ("z00", "z11"))
    letters[cxw] = Letter(cxw, chi, c_u, _point_profile(rings, 1, 1, c_m))
    if q >= 1:
        letters["divq"] = Letter("divq", q * chi, cq_u,
                                 _point_profile(rings, 1, -1, 0), credits=("z1",))
    letters["x"] = Letter("x", depth * chi + sigma2, y_u,
                          _point_profile(rings, 0, 1, y_m), credits=("z00",))
    # xp is the invariant maximal section disjoint from x; in the model
    # Q^{2q} in P(C^{2q} + C^2 sigma) the invariant maximal sections are
    # the P(L + l).  The odd quadrics have the one ruling class y.  In the
    # even quadrics two disjoint maximal sections share a ruling exactly
    # when q is odd, while their traces on the middle component Q^{2q-2}
    # share a ruling exactly when q is even.
    if family == "BD":
        xp_rho, xp_mid = y_u, y_m
    elif q % 2 == 0:
        xp_rho, xp_mid = cq_u - y_u, y_m
    else:
        xp_rho, xp_mid = y_u, _cls(mid, q - 1, 0) - y_m
    letters["xp"] = Letter("xp", letters["x"].grading, xp_rho,
                           _point_profile(rings, 1, 0, xp_mid), credits=("z11",))

    order = tuple(letters)
    t = lambda *pairs: _terms(order, *pairs)
    mono = lambda exps: _mono_of(order, exps)
    fibre = {"z0": ("z00", "z11"), "z1": ("z1",), "cw": (cw,), "cxw": (cxw,),
             "divq": ("divq",)}

    if family == "BD" and q == 0:
        rules = [
            zeta_merge,
            RewriteRule("section-vanishing", mono({"x": 1, "xp": 1}), ()),
            RewriteRule("x-square", mono({"x": 2}), t((_E2, {"x": 1}))),
            RewriteRule("euler-transfer", mono({cw: 1}),
                        t((_TAU, {"z1": 1, "x": 1}))),
            RewriteRule("xp-expansion", mono({"xp": 1}),
                        t((_UNIT_MINUS_KAPPA, {"x": 1}), (_E2, {}))),
        ]
        relations = [
            Relation("euler-transfer",
                     t((_ONE, {cw: 1}), (-_K1, {cw: 1, "x": 1})),
                     t((_TAU, {"z1": 1, "x": 1}))),
        ]
        units = (("section-unit", t((_ONE, {}), (-_K1, {"x": 1})),
                  t((_ONE, {}), (-_K1, {"x": 1}))),)
        lemma_ansatz = ((_ONE, mono({"x": 1})), (_E2, mono({})))
    elif family == "BD":
        rules = [
            RewriteRule("divided-square", mono({"divq": 2}),
                        t((-_K1, {"divq": 1, "x": 1}),
                          (_TAU, {"z00": 1, "z11": 1, cxw: q - 1, "x": 1}),
                          (PointScalar.e_power(2 * q), {"z1": -q, "divq": 1}))),
            zeta_merge,
            RewriteRule("section-vanishing", mono({"x": 1, "xp": 1}), ()),
            # x-square, oriented at the divided-class basis slot
            RewriteRule("x-square", mono({"x": 2}),
                        t((-_E2, {"divq": 1, "x": 1}))),
            RewriteRule("euler-times-divided", mono({cw: 1, "divq": 1}),
                        t((_TAU, {"z1": 1, "x": 1}))),
            RewriteRule("chi-euler-to-divided", mono({cxw: q}),
                        t((_ONE, {"divq": 1}), (_K1, {"x": 1}))),
            *_fibre_rules(fibre, order),
            RewriteRule("xp-expansion", mono({"xp": 1}),
                        t((_ONE, {"x": 1}), (_E2, {"divq": 1}))),
        ]
        relations = [
            Relation("x-square", t((_ONE, {"x": 2})),
                     t((_E2, {cxw: q, "x": 1}))),
            Relation("divided-class", t((_ONE, {"divq": 1})),
                     t((_ONE, {cxw: q}), (-_K1, {"x": 1}))),
        ]
        units = ()
        lemma_ansatz = ((_ONE, mono({"x": 1})), (_E2, mono({"divq": 1})),
                        (_K1, mono({"z00": 1, "z11": 1, cw: 1, "x": 1})))
    else:
        # Even quadrics: x and the disjoint section xp kill each other, but
        # the annihilator of x is not principal on xp (no vanishing pair).
        # xp's expansion is solved from its evaluation: for odd q it is
        # (1-kappa)*x + e^2*cxw^(q-1), and x*xp = g*e^2*cxw^(q-1)*x = 0;
        # for even q it is -(1-kappa)*x + z1*divq, and x*xp = 0 because
        # (1-kappa)^2 = 1.
        if q % 2 == 1:
            x_sq_rule = t((_E2, {cxw: q - 1, "x": 1}))
            xp_rhs = t((_UNIT_MINUS_KAPPA, {"x": 1}), (_E2, {cxw: q - 1}))
            relations = []
        else:
            xp_rhs = t((-_UNIT_MINUS_KAPPA, {"x": 1}), (_ONE, {"z1": 1, "divq": 1}))
            # oriented form: push through the divided class, the twisted
            # unit swallows the correction term exactly
            x_sq_rule = t((_UNIT_MINUS_KAPPA, {"z1": 1, "divq": 1, "x": 1}))
            relations = [Relation("x-square", t((_ONE, {"x": 2})),
                                  t((_ONE, {"z1": 1, cxw: q, "x": 1})))]
        relations.append(Relation("divided-class", t((_ONE, {"divq": 1})),
                                  t((_ONE, {cxw: q}), (-_K1, {cxw: 1, "x": 1}))))
        rules = [
            RewriteRule("divided-square", mono({"divq": 2}),
                        t((PointScalar.e_power(2 * q), {"z1": -q, "divq": 1}),
                          (_UNIT_MINUS_KAPPA + _UNIT_MINUS_KAPPA,
                           {"z1": -1, "divq": 1, "x": 1}))),
            zeta_merge,
            RewriteRule("x-square", mono({"x": 2}), x_sq_rule),
            RewriteRule("euler-times-divided", mono({cw: 1, "divq": 1}),
                        t((_TAU, {"z00": 1, "z11": 1, cw: 1, "x": 1}))),
            RewriteRule("chi-euler-to-divided", mono({cxw: q}),
                        t((_ONE, {"divq": 1}), (_K1, {cxw: 1, "x": 1}))),
            *_fibre_rules(fibre, order),
            RewriteRule("xp-expansion", mono({"xp": 1}), xp_rhs),
        ]
        units = ()
        lemma_ansatz = ((_ONE, mono({"x": 1})), (_ONE, mono({"z1": 1, "divq": 1})),
                        (_E2, mono({cxw: q - 1})),
                        (_K1, mono({"z00": 1, "z11": 1, cw: 1, "x": 1})))

    name = {"BD": f"Q_BD(q={q})", "DD": f"Q_DD(q={q})", "Gr": "Gr222"}[family]
    return SpacePresentation(
        name, family, q, group, und, rings, letters,
        invertible=("z1",) if q == 0 else (),
        rules=rules, relations=relations, units=units,
        lemma_ansatz=lemma_ansatz, fibre=fibre,
        annihilator_pair=("x", "xp") if family == "BD" else None)


def _build_q22() -> SpacePresentation:
    group = GradingGroup(("00", "11", "01", "10"))
    und = TruncatedRing.proj_line_square()
    pt = TruncatedRing.point()
    rings = (pt, pt, pt, pt)
    x1_u, x2_u = _cls(und, 1, 0), _cls(und, 0, 1)
    c_u, y_u = x1_u + x2_u, x1_u

    omega_w = group.element(2, omega={"01": 1, "10": 1})
    chi = group.element(2, omega={"00": 1, "11": 1})
    sigma2 = group.element(0, 2)

    letters, zeta_merge = _zeta_letters(group, und, rings)
    letters.update({
        "cw": Letter("cw", omega_w, c_u, _point_profile(rings, 0, 0, 1, 1),
                     credits=("z00", "z11")),
        "cxw": Letter("cxw", chi, c_u, _point_profile(rings, 1, 1, 0, 0),
                      credits=("z01", "z10")),
        "x": Letter("x", sigma2, y_u, _point_profile(rings, 0, 1, 0, 1),
                    credits=("z00", "z01")),
        # the four section classes: x = (i3)!(1) and its three companions
        "x0": Letter("x0", sigma2, x1_u, _point_profile(rings, -1, 0, -1, 0),
                     credits=("z11", "z10")),
        "x1": Letter("x1", sigma2, -x2_u, _point_profile(rings, -1, 0, 0, 1),
                     credits=("z11", "z01")),
        "x2": Letter("x2", sigma2, -x2_u, _point_profile(rings, 0, 1, -1, 0),
                     credits=("z00", "z10")),
    })

    order = tuple(letters)
    t = lambda *pairs: _terms(order, *pairs)
    mono = lambda exps: _mono_of(order, exps)
    zeta0 = {"z00": 1, "z11": 1}
    zeta1 = {"z01": 1, "z10": 1}
    # The fibre slot divisible by the off-diagonal class is carried by cxw
    # here, which that class divides.
    fibre = {"z0": ("z00", "z11"), "z1": ("z01", "z10"), "cw": ("cw",),
             "cxw": ("cxw",), "divq": ("cxw",)}

    rules = (
        zeta_merge,
        RewriteRule("disjoint-sections-03", mono({"x": 1, "x0": 1}), ()),
        RewriteRule("disjoint-sections-21", mono({"x2": 1, "x1": 1}), ()),
        RewriteRule("x-square", mono({"x": 2}), t((_E2, {"x": 1}))),
        RewriteRule("euler-product", mono({"cw": 1, "cxw": 1}),
                    t((_TAU, dict(zeta0, cw=1, x=1)))),
        *_fibre_rules(fibre, order),
        RewriteRule("x0-expansion", mono({"x0": 1}),
                    t((_ONE, {"x": 1}), (-_E2, {}))),
        RewriteRule("x1-expansion", mono({"x1": 1}),
                    t((_ONE, {"x": 1}), (-_ONE, dict(zeta1, cxw=1)))),
        RewriteRule("x2-expansion", mono({"x2": 1}),
                    t((_ONE, {"x": 1}), (-_ONE, dict(zeta0, cw=1)))),
    )
    pushforwards = {
        "i3": t((_ONE, {"x": 1})),
        "i2": t((-_UNIT_MINUS_KAPPA, {"x": 1}), (_ONE, dict(zeta0, cw=1)),
                (-_K1, dict(zeta0, cw=1, x=1))),
        "i1": t((-_ONE, {"x": 1}), (_K1, dict(zeta0, cw=1, x=1)),
                (_ONE, dict(zeta1, cxw=1))),
        "i0": t((_UNIT_MINUS_KAPPA, {"x": 1}), (_E2, {})),
    }
    pushforward_targets = {
        "i3": (y_u, _point_profile(rings, 0, 1, 0, 1)),
        "i2": (c_u - y_u, _point_profile(rings, 0, 1, 1, 0)),
        "i1": (c_u - y_u, _point_profile(rings, 1, 0, 0, 1)),
        "i0": (y_u, _point_profile(rings, 1, 0, 1, 0)),
    }
    pushforward_ansatz = ((_ONE, mono({"x": 1})), (_ONE, mono(zeta0 | {"cw": 1})),
                          (_E2, mono({})), (_K1, mono(zeta0 | {"cw": 1, "x": 1})))
    identifications = {
        "cw1": t((_ONE, {"z00": -1, "z01": -1, "x": 1})),
        "cxw1": t((_UNIT_MINUS_KAPPA, {"z11": -1, "z10": -1, "x0": 1})),
        "cw2": t((-_UNIT_MINUS_KAPPA, {"z00": -1, "z10": -1, "x2": 1}),
                 (-_K1, {"z11": 1, "z10": -1, "cw": 1, "x2": 1})),
        "cxw2": t((-_ONE, {"z11": -1, "z01": -1, "x1": 1}),
                  (_K1, {"z00": 1, "z01": -1, "cw": 1, "x1": 1})),
        "cw_bundle": t((_ONE, {"cw": 1})),
        "cxw_bundle": t((_ONE, {"cxw": 1})),
    }

    return SpacePresentation(
        "Q22", "Q22", None, group, und, rings, letters,
        rules=rules, pushforwards=pushforwards,
        pushforward_targets=pushforward_targets,
        pushforward_ansatz=pushforward_ansatz, identifications=identifications,
        fibre=fibre, annihilator_pair=("x", "x0"))


# name -> (least q, greatest q, builder); a family without a range takes no q
_FAMILIES = {
    "BU1": (None, None, _build_bu1),
    "X1q": (0, MAX_Q, _build_x1q),
    "Q_BD": (0, MAX_Q, partial(_build_quadric, "BD")),
    "Q_DD": (2, MAX_Q, partial(_build_quadric, "DD")),
    "Q22": (None, None, _build_q22),
    "Gr222": (None, None, partial(_build_quadric, "Gr", 2)),
}


def load_presentation(name: str, q: int | None = None) -> SpacePresentation:
    """Construct (and cache) the presentation of one space.

    Q_BD(q) is the quadric of complex dimension 2q + 1, Q_DD(q) the one of
    dimension 2q (q >= 2); Gr222 and Q22 are the q = 2 and q = 1 even
    special cases with their own letters, and X1q/BU1 are the building
    blocks they restrict to.  The cache is keyed on the pair (name, q),
    so every spelling of a call gives the same space.
    """
    return _load(name, q)


@lru_cache(maxsize=None)
def _load(name: str, q: int | None) -> SpacePresentation:
    if name not in _FAMILIES:
        raise ValueError(f"unknown space {name!r}; expected one of {sorted(_FAMILIES)}")
    lo, hi, build = _FAMILIES[name]
    if lo is None:
        if q is not None:
            raise ValueError(f"{name} does not take a parameter q")
        return build()
    if q is None:
        raise ValueError(f"{name} needs the bundle parameter q")
    if not (lo <= q <= hi):
        raise ValueError(f"q={q} out of range [{lo}, {hi}] for {name}")
    return build(q)


load_presentation.cache_info = _load.cache_info  # the hits, as on any lru_cache
