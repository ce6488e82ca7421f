"""Integer cohomology rings of the underlying and fixed spaces.

Every ring used by the equivariant engine is a finite-rank truncation of a
polynomial ring: projective lines and their squares, truncated polynomial
rings of projective spaces, and the two quadric families

    odd quadric Q^{2s+1}:  Z[c, y] / (c^{s+1} - 2y,  y^2),          deg y = 2s+2
    even quadric Q^{2s}:   Z[c, y] / (c^{s+1} - 2cy, y^2 - eps c^s y), deg y = 2s

with eps = 1 for s even and 0 for s odd.  Instances are immutable and cached.
Each family's reduce is its product, in closed form; the ring axioms are
checked on every ring the constructors can build by a reference test
(tests/test_nonequiv.py), not at construction.

Classes are sparse integer combinations of basis monomials, their keys
checked only where they come in: a reduce returns only basis keys.  The only
non-generic computation here is the Euler class of the third symmetric
power of a rank-2 bundle, expanded once and for all in Chern classes from
its weight decomposition.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb
from operator import add
from typing import Callable, Mapping

from .printing import power_product, scaled, signed_sum

Key = tuple[int, ...]
Reduce = Callable[[Key], dict[Key, int]]


class TruncatedRing:
    """A finite-rank graded ring: a basis, and a reduce taking an exponent
    vector to basis keys, so that k1*k2 is the reduce of k1 + k2.  The raw
    constructor is not an extension point; only the families below build rings.
    """
    __slots__ = ("name", "vars", "_basis", "_order", "_reduce")

    def __init__(self, name: str, variables: tuple[str, ...],
                 basis: dict[Key, int], reduce_fn: Reduce):
        self.name = name
        self.vars = variables
        self._basis = dict(basis)
        self._order = tuple(sorted(basis, key=lambda k: (basis[k], tuple(-x for x in k))))
        self._reduce = reduce_fn

    # --- queries ---

    def rank(self) -> int:
        return len(self._order)

    def basis_keys(self) -> tuple[Key, ...]:
        return self._order

    def degree_of(self, key: Key) -> int:
        return self._basis[key]

    def reduce_exponents(self, raw: Key) -> dict[Key, int]:
        if len(raw) != len(self.vars):
            raise ValueError(f"{self.name} has variables {self.vars}")
        if any(x < 0 for x in raw):
            raise ValueError("negative exponents have no meaning here")
        return self._reduce(raw)

    def __repr__(self):
        return f"TruncatedRing({self.name})"

    # --- the instances the spaces use ---

    @staticmethod
    @lru_cache(maxsize=None)
    def zero() -> "TruncatedRing":
        return TruncatedRing("0", (), {}, lambda raw: {})

    @staticmethod
    @lru_cache(maxsize=None)
    def point() -> "TruncatedRing":
        return TruncatedRing("pt", (), {(): 0}, lambda raw: {(): 1})

    @staticmethod
    @lru_cache(maxsize=None)
    def truncated_poly(n: int) -> "TruncatedRing":
        if n < 1:
            raise ValueError("truncation length must be positive")

        def reduce_fn(raw: Key) -> dict[Key, int]:
            return {raw: 1} if raw[0] < n else {}

        return TruncatedRing(f"P{n - 1}", ("c",),
                             {(i,): 2 * i for i in range(n)}, reduce_fn)

    @staticmethod
    @lru_cache(maxsize=None)
    def poly_window(n: int, name: str) -> "TruncatedRing":
        """Z[c] seen through c^0, ..., c^{n-1}: a product past c^{n-1} raises."""
        def reduce_fn(raw: Key) -> dict[Key, int]:
            if raw[0] < n:
                return {raw: 1}
            raise RuntimeError(f"{name}: c^{raw[0]} lies past the window c^0..c^{n - 1} of Z[c]")

        return TruncatedRing(name, ("c",), {(i,): 2 * i for i in range(n)}, reduce_fn)

    @staticmethod
    @lru_cache(maxsize=None)
    def proj_line_square() -> "TruncatedRing":
        basis = {(i, j): 2 * (i + j) for i in range(2) for j in range(2)}

        def reduce_fn(raw: Key) -> dict[Key, int]:
            return {raw: 1} if raw[0] < 2 and raw[1] < 2 else {}

        return TruncatedRing("P1xP1", ("x1", "x2"), basis, reduce_fn)

    @staticmethod
    @lru_cache(maxsize=None)
    def odd_quadric(s: int) -> "TruncatedRing":
        """H*(Q^{2s+1}); s = -1 gives the empty space's zero ring."""
        if s < -1:
            raise ValueError("odd quadric needs s >= -1")
        basis = {(i, j): 2 * i + (2 * s + 2) * j
                 for i in range(s + 1) for j in range(2)}

        def reduce_fn(raw: Key) -> dict[Key, int]:
            i, j = raw
            if j >= 2:
                return {}  # y^2 = 0
            if i > s:
                if j == 1:
                    return {}  # c^{s+1} y = 2y^2 = 0
                out = reduce_fn((i - s - 1, 1))  # c^{s+1} = 2y
                return {k: 2 * n for k, n in out.items()}
            return {raw: 1}

        return TruncatedRing(f"Q{2 * s + 1}", ("c", "y"), basis, reduce_fn)

    @staticmethod
    @lru_cache(maxsize=None)
    def even_quadric(s: int) -> "TruncatedRing":
        """H*(Q^{2s}) for s >= 1, in the ruling generator y of degree 2s."""
        if s < 1:
            raise ValueError("even quadric needs s >= 1")
        basis = {(i, j): 2 * i + 2 * s * j
                 for i in range(s + 1) for j in range(2)}

        def reduce_fn(raw: Key) -> dict[Key, int]:
            i, j = raw
            if j >= 2:
                if s % 2 == 1:
                    return {}  # y^2 = 0
                return reduce_fn((i + s, j - 1))  # y^2 = c^s y
            if i > s:
                if j == 1:
                    return {}  # c^{s+1} y = 2cy^2 forces c^{s+1} y = 0
                out = reduce_fn((i - s, 1))  # c^{s+1} = 2cy
                return {k: 2 * n for k, n in out.items()}
            return {raw: 1}

        return TruncatedRing(f"Q{2 * s}", ("c", "y"), basis, reduce_fn)


class NonequivClass:
    """A sparse integer combination of a ring's basis keys.  The constructor
    trusts its keys; a raw key comes in through `monomial`, which checks it,
    or `from_exponents`, which reduces it."""
    __slots__ = ("ring", "coeffs")

    def __init__(self, ring: TruncatedRing, coeffs: Mapping[Key, int]):
        self.ring = ring
        self.coeffs = {k: int(n) for k, n in coeffs.items() if n}

    @classmethod
    def zero(cls, ring: TruncatedRing) -> "NonequivClass":
        return cls(ring, {})

    @classmethod
    def unit(cls, ring: TruncatedRing) -> "NonequivClass":
        key = (0,) * len(ring.vars)
        return cls(ring, {key: 1} if key in ring._basis else {})

    @classmethod
    def monomial(cls, ring: TruncatedRing, key: Key, n: int = 1) -> "NonequivClass":
        if key not in ring._basis:
            raise ValueError(f"{key} is not a basis monomial of {ring.name}")
        return cls(ring, {key: n})

    @classmethod
    def from_exponents(cls, ring: TruncatedRing, raw: Key, n: int = 1) -> "NonequivClass":
        return cls(ring, {k: n * m for k, m in ring.reduce_exponents(raw).items()})

    # --- arithmetic ---

    def _check(self, other: "NonequivClass"):
        if self.ring is not other.ring:
            raise ValueError(f"classes live in different rings "
                             f"({self.ring.name} vs {other.ring.name})")

    def __add__(self, other: "NonequivClass") -> "NonequivClass":
        self._check(other)
        out = dict(self.coeffs)
        for k, n in other.coeffs.items():
            out[k] = out.get(k, 0) + n
        return NonequivClass(self.ring, out)

    def __sub__(self, other: "NonequivClass") -> "NonequivClass":
        return self + (-other)

    def __neg__(self) -> "NonequivClass":
        return NonequivClass(self.ring, {k: -n for k, n in self.coeffs.items()})

    def __mul__(self, other) -> "NonequivClass":
        if isinstance(other, int):
            return NonequivClass(self.ring, {k: n * other for k, n in self.coeffs.items()})
        self._check(other)
        if not (self.coeffs and other.coeffs):  # classes are values: reuse the zero
            return other if self.coeffs else self
        reduce_fn = self.ring._reduce
        out: dict[Key, int] = {}
        for k1, n1 in self.coeffs.items():
            for k2, n2 in other.coeffs.items():
                for k, m in reduce_fn(tuple(map(add, k1, k2))).items():
                    out[k] = out.get(k, 0) + n1 * n2 * m
        return NonequivClass(self.ring, out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "NonequivClass":
        if n < 0:
            raise ValueError("no inverses in a truncated ring")
        if n < 2:
            return self if n else NonequivClass.unit(self.ring)
        if len(self.coeffs) == 1:  # one reduce of the scaled exponent
            (key, c), = self.coeffs.items()
            return NonequivClass.from_exponents(self.ring, tuple(n * x for x in key), c ** n)
        half = self ** (n // 2)
        return half * half * self if n % 2 else half * half

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        return (isinstance(other, NonequivClass) and self.ring is other.ring
                and self.coeffs == other.coeffs)

    # --- structure ---

    def homogeneous_degree(self) -> int | None:
        degrees = {self.ring.degree_of(k) for k in self.coeffs}
        return degrees.pop() if len(degrees) == 1 else None

    def coefficient(self, key: Key) -> int:
        return self.coeffs.get(key, 0)

    def __repr__(self):
        return f"NonequivClass({self.ring.name}, {self!s})"

    def __str__(self):
        return signed_sum(
            scaled(str(self.coeffs[key]), power_product(zip(self.ring.vars, key)))
            for key in self.ring._order if key in self.coeffs)


def _symmetric_reduction(poly: dict[Key, int]) -> dict[Key, int]:
    """Rewrite a symmetric polynomial in a, b as a polynomial in a+b, ab."""
    poly = {k: n for k, n in poly.items() if n}
    out: dict[Key, int] = {}
    while poly:
        (i, j) = max(poly)  # lex-leading exponent pair, i >= j by symmetry
        if i < j:
            raise AssertionError("polynomial is not symmetric")
        n = poly[(i, j)]
        out[(i - j, j)] = n
        # subtract n * (a+b)^{i-j} (ab)^j
        for t in range(i - j + 1):
            key = (i - j - t + j, t + j)
            poly[key] = poly.get(key, 0) - n * comb(i - j, t)
        poly = {k: v for k, v in poly.items() if v}
    return out


def sym3_weight_expansion() -> dict[Key, int]:
    """Euler class of Sym^3 of a rank-2 bundle, as {(c-exp, y-exp): coeff}.

    The weights of Sym^3 on Chern roots a, b are 3a, 2a+b, a+2b, 3b; the
    product is expanded over Z[a, b] and rewritten in c = a+b, y = ab.
    """
    weights = [(3, 0), (2, 1), (1, 2), (0, 3)]
    poly = {(0, 0): 1}
    for (u, v) in weights:
        new: dict[Key, int] = {}
        for (i, j), n in poly.items():
            new[(i + 1, j)] = new.get((i + 1, j), 0) + n * u
            new[(i, j + 1)] = new.get((i, j + 1), 0) + n * v
        poly = new
    return _symmetric_reduction(poly)


def euler_sym3_rank2(ring: TruncatedRing) -> NonequivClass:
    """The symmetric-cube Euler class, reduced in a (c, y) quadric ring."""
    if ring.vars != ("c", "y"):
        raise ValueError("the expansion lives in a quadric ring with variables c, y")
    total = NonequivClass.zero(ring)
    for raw, n in sym3_weight_expansion().items():
        total = total + NonequivClass.from_exponents(ring, raw, n)
    return total


def euler_fixed_sym3(ring: TruncatedRing, parity: str) -> NonequivClass:
    """Euler class of the fixed part of Sym^3 over the P1 x P1 component.

    The fixed subbundle has rank 2 with weights 3*x1 and x1 + 2*x2 in the
    even case; the odd case swaps the roles of the two line factors.
    """
    if ring.vars != ("x1", "x2"):
        raise ValueError("the fixed expansion lives over the P1 x P1 ring")
    if parity not in ("even", "odd"):
        raise ValueError("parity must be 'even' or 'odd'")
    x1 = NonequivClass.from_exponents(ring, (1, 0))
    x2 = NonequivClass.from_exponents(ring, (0, 1))
    if parity == "odd":
        x1, x2 = x2, x1
    return (3 * x1) * (x1 + 2 * x2)
