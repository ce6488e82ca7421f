"""Exact arithmetic in the Burnside ring A(C2).

A(C2) is free abelian on {1, g} with g*g = 2g.  The two ring
homomorphisms to the integers are

    rho(a + b g) = a + 2b      (forget the group action)
    fix(a + b g) = a           (restrict to the fixed locus)

and the pair (rho, fix) is injective, which is what makes the
coefficient-solving trick work: an unknown coefficient alpha is pinned
down by knowing rho(alpha) and fix(alpha), provided they agree mod 2.

kappa is the derived constant 2 - g; it satisfies kappa**2 == 2*kappa
and (1 - kappa)**2 == 1.
"""

from __future__ import annotations

from .printing import scaled


class UnsolvableError(ValueError):
    """Raised when an evaluation pair (r, f) admits no Burnside preimage."""


class BurnsideScalar:
    """Element a*1 + b*g of A(C2)."""

    __slots__ = ("a", "b")

    def __init__(self, a: int = 0, b: int = 0):
        self.a = int(a)
        self.b = int(b)

    def __add__(self, other: "BurnsideScalar") -> "BurnsideScalar":
        return BurnsideScalar(self.a + other.a, self.b + other.b)

    def __sub__(self, other: "BurnsideScalar") -> "BurnsideScalar":
        return BurnsideScalar(self.a - other.a, self.b - other.b)

    def __neg__(self) -> "BurnsideScalar":
        return BurnsideScalar(-self.a, -self.b)

    def __mul__(self, other) -> "BurnsideScalar":
        if isinstance(other, int):
            return BurnsideScalar(self.a * other, self.b * other)
        if not isinstance(other, BurnsideScalar):
            return NotImplemented
        # (a1 + b1 g)(a2 + b2 g), g*g = 2g
        return BurnsideScalar(
            self.a * other.a,
            self.a * other.b + self.b * other.a + 2 * self.b * other.b,
        )

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            return self.a == other and self.b == 0
        return isinstance(other, BurnsideScalar) and self.a == other.a and self.b == other.b

    def __hash__(self):
        return hash((self.a, self.b))

    def __bool__(self) -> bool:
        return self.a != 0 or self.b != 0

    @property
    def rho(self) -> int:
        return self.a + 2 * self.b

    @property
    def fix(self) -> int:
        return self.a

    def __repr__(self) -> str:
        return f"BurnsideScalar({self.a}, {self.b})"

    def __str__(self) -> str:
        if self.b == 0:
            return str(self.a)
        g = scaled(str(self.b), "g")
        if self.a == 0:
            return g
        return f"{self.a}{'+' if self.b > 0 else ''}{g}"


ZERO = BurnsideScalar(0, 0)
ONE = BurnsideScalar(1, 0)
G = BurnsideScalar(0, 1)
KAPPA = BurnsideScalar(2, -1)  # 2 - g
ONE_MINUS_KAPPA = ONE - KAPPA  # = g - 1, a self-inverse unit


def burnside_solve(r: int, f: int) -> BurnsideScalar:
    """The unique alpha with rho(alpha) = r and fix(alpha) = f.

    Raises UnsolvableError when r - f is odd (no such alpha exists;
    in practice this signals an inconsistent evaluation pair).
    """
    if (r - f) % 2 != 0:
        raise UnsolvableError(f"no Burnside element with rho={r}, fix={f}: parity mismatch")
    return BurnsideScalar(f, (r - f) // 2)
