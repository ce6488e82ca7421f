"""The finite fragment of point-ring scalars the quadric computations consume.

A PointScalar is a single canonical monomial

    coeff * e^k * xi^b * tau_j * (e^{-2m} kappa)^{0|1}

where coeff lives in A(C2), e has grading sigma, xi has grading
2*sigma - 2, tau_j (shorthand for the transfer tau(iota^{-2j}), written
tau2 for j = 1) has grading 2j - 2j*sigma, and the negative-cone classes
e^{-2m}*kappa have grading -2m*sigma.  The fragment is closed under the
product rules that the rho/fix homomorphisms and the Frobenius relation
a * tau(z) = tau(rho(a) * z) force:

    g*e = 0        g*xi = 2*xi      g*kappa = 0
    kappa*e = 2e   kappa*xi = 0     kappa*tau_j = 0
    e*tau_j = 0    tau_j*tau_k = 2*tau_{j+k}
    xi^b*tau_j = g*xi^{b-j}  (b >= j, with tau_0 := g)
              = tau_{j-b}    (b < j)
    e^a * (e^-2m kappa) = e^{a-2m} kappa   (a < 2m, a even)
                        = kappa            (a = 2m)
                        = 2 e^{a-2m}       (a > 2m)
    (e^-2j kappa)(e^-2m kappa) = 2 e^{-2(j+m)} kappa

Mixed monomials e^k*xi^j with k, j >= 1 are 2-torsion: 2*e*xi =
e*tau(iota^2) = tau(rho(e)*iota^2) = 0, and the group in that grading is
exactly Z/2 (cellular chain computation over the sign sphere), so the
coefficient of a mixed monomial is reduced mod 2.  Both evaluation maps
vanish on these classes, which is why coefficient solves never dress a
basis slot with one.

The only product that leaves the fragment is an odd e-power meeting a
negative-cone class; that raises FragmentError rather than silently
extending the ring.

Burnside coefficients collapse on nontrivial monomials: on e^k only the
fixed part survives, on xi^b and tau_j only the rho part, and so on.
The canonical form applies these collapses eagerly so that equality of
PointScalars is structural equality.
"""

from __future__ import annotations

from .burnside import BurnsideScalar, KAPPA, ZERO as BZERO
from .printing import power_product, scaled

Degree = tuple[int, int]  # (coefficient of 1, coefficient of sigma) in RO(C2)


class FragmentError(ArithmeticError):
    """A product left the implemented fragment of the point ring."""


class PointScalar:
    __slots__ = ("coeff", "e", "xi", "tau", "kneg")

    def __init__(self, coeff: BurnsideScalar, e: int = 0, xi: int = 0,
                 tau: int = 0, kneg: int = 0):
        if e < 0 or xi < 0 or tau < 0 or kneg < 0:
            raise ValueError("negative structural exponent")
        # --- canonicalization ---
        if tau > 0:
            if e > 0 or kneg > 0:
                coeff, e, xi, tau, kneg = BZERO, 0, 0, 0, 0  # tau*e = 0, tau*kappa = 0
            else:
                coeff = BurnsideScalar(coeff.rho, 0)  # Burnside acts through rho on transfers
                if xi >= tau:  # xi^b * tau_j = g * xi^{b-j}
                    coeff = BurnsideScalar(0, coeff.a)
                    xi -= tau
                    tau = 0
                elif xi > 0:  # xi^b * tau_j = tau_{j-b}
                    tau -= xi
                    xi = 0
        if kneg > 0:
            if xi > 0:
                coeff, e, xi, kneg = BZERO, 0, 0, 0  # kappa*xi = 0
            elif e > 0:
                if e % 2 != 0 and e < 2 * kneg:
                    raise FragmentError(
                        f"e^{e} * e^-{2*kneg}kappa lands in an odd negative sigma-degree "
                        "outside the fragment")
                if e < 2 * kneg:
                    kneg -= e // 2
                    e = 0
                elif e == 2 * kneg:
                    coeff, e, kneg = coeff * KAPPA, 0, 0
                else:
                    coeff, e, kneg = coeff * 2, e - 2 * kneg, 0
        if kneg > 0:
            coeff = BurnsideScalar(coeff.fix, 0)  # g kills the negative cone
        elif e > 0 and xi > 0:
            coeff = BurnsideScalar(coeff.fix % 2, 0)  # 2*e*xi = 0 (torsion class)
        elif e > 0:
            coeff = BurnsideScalar(coeff.fix, 0)  # g*e = 0
        elif xi > 0:
            coeff = BurnsideScalar(coeff.rho, 0)  # g*xi = 2*xi
        if not coeff:
            e = xi = tau = kneg = 0
        self.coeff = coeff
        self.e = e
        self.xi = xi
        self.tau = tau
        self.kneg = kneg

    # --- constructors ---

    @classmethod
    def integer(cls, n: int) -> "PointScalar":
        return cls(BurnsideScalar(n, 0))

    @classmethod
    def from_burnside(cls, b: BurnsideScalar) -> "PointScalar":
        return cls(b)

    @classmethod
    def e_power(cls, k: int, n: int = 1) -> "PointScalar":
        return cls(BurnsideScalar(n, 0), e=k)

    @classmethod
    def xi_power(cls, j: int, n: int = 1) -> "PointScalar":
        return cls(BurnsideScalar(n, 0), xi=j)

    @classmethod
    def tau_power(cls, j: int = 1, n: int = 1) -> "PointScalar":
        """The transfer class n * tau(iota^{-2j}); tau_power(1) is tau2."""
        return cls(BurnsideScalar(n, 0), tau=j)

    @classmethod
    def kappa_negative(cls, m: int, n: int = 1) -> "PointScalar":
        """The class n * e^{-2m} kappa in H^{-2m sigma}(pt)."""
        return cls(BurnsideScalar(n, 0), kneg=m)

    # --- structure ---

    def shape(self) -> tuple[int, int, int, int]:
        return (self.e, self.xi, self.tau, self.kneg)

    def is_burnside(self) -> bool:
        """Whether this is a plain Burnside scalar a + b*g, of shape (0, 0, 0, 0)."""
        return not (self.e or self.xi or self.tau or self.kneg)

    def grading(self) -> Degree:
        one = -2 * self.xi + 2 * self.tau
        sigma = self.e + 2 * self.xi - 2 * self.tau - 2 * self.kneg
        return (one, sigma)

    def rho_multiplier(self) -> int:
        """rho(self * M) = rho_multiplier * rho(M) for any class M."""
        if not self.coeff:
            return 0
        if self.tau:
            return 2 * self.coeff.a
        if self.kneg or self.e:
            return 0
        return self.coeff.rho  # pure Burnside or xi-kind (xi has rho = 1)

    def fix_multiplier(self) -> int:
        """fix(self * M) = fix_multiplier * fix(M), per fixed component."""
        if not self.coeff:
            return 0
        if self.tau or self.xi:
            return 0
        if self.kneg:
            return 2 * self.coeff.a
        return self.coeff.fix  # e^k has fix = 1; pure Burnside uses fix

    def __bool__(self) -> bool:
        return bool(self.coeff)

    def __add__(self, other: "PointScalar") -> "PointScalar":
        if not self:
            return other
        if not other:
            return self
        if self.shape() != other.shape():
            raise ValueError(f"cannot add scalars of different shapes: {self} + {other}")
        return PointScalar(self.coeff + other.coeff, self.e, self.xi, self.tau, self.kneg)

    def __neg__(self) -> "PointScalar":
        return PointScalar(-self.coeff, self.e, self.xi, self.tau, self.kneg)

    def __mul__(self, other: "PointScalar") -> "PointScalar":
        if not isinstance(other, PointScalar):
            return NotImplemented
        if not self or not other:
            return ZERO
        coeff = self.coeff * other.coeff
        if self.tau and other.tau:
            coeff = coeff * 2  # tau_j * tau_k = 2 tau_{j+k}
        if self.kneg and other.kneg:
            coeff = coeff * 2  # kappa^2 = 2 kappa
        return PointScalar(coeff, self.e + other.e, self.xi + other.xi,
                           self.tau + other.tau, self.kneg + other.kneg)

    def scale(self, b: BurnsideScalar | int) -> "PointScalar":
        """self * b, built as it stands where it is canonical (ZERO for b = 0, any b
        on a plain Burnside scalar, an int b without e^k*xi^j); else canonicalized."""
        if not b:
            return ZERO
        if self.is_burnside() or isinstance(b, int) and not (self.e and self.xi):
            out = object.__new__(PointScalar)
            out.coeff, out.e, out.xi, out.tau, out.kneg = self.coeff * b, *self.shape()
            return out
        return PointScalar(self.coeff * b, *self.shape())

    def __eq__(self, other) -> bool:
        return (isinstance(other, PointScalar) and self.coeff == other.coeff
                and self.shape() == other.shape())

    def __hash__(self):
        return hash((self.coeff, self.shape()))

    def __repr__(self):
        return f"PointScalar({self!s})"

    def __str__(self):
        powers = [("e", self.e), ("xi", self.xi)]
        if self.tau:
            powers.append((f"tau{2 * self.tau}", 1))  # tau2, tau4, ... = tau(iota^-2j)
        if self.kneg:
            powers += [("e", -2 * self.kneg), ("kappa", 1)]
        return scaled(str(self.coeff), power_product(powers))


ZERO = PointScalar(BZERO)
ONE = PointScalar(BurnsideScalar(1, 0))


def scalar_dressing(degree: Degree) -> tuple[PointScalar, str] | None:
    """The unique fragment monomial of a given RO(C2) grading, if any.

    Returns (template scalar, coefficient domain) where the domain is
    "burnside" for degree 0 (a full A(C2) worth of choices) and "int"
    otherwise (the Burnside action collapses).  Returns None when the
    fragment has no class of infinite order in that grading, which is
    what makes most basis slots drop out of the coefficient solves.  In
    particular the gradings carrying only the 2-torsion classes e^k*xi^j
    return None: a torsion class admits no integer coefficient solve and
    is invisible to both evaluation maps anyway.
    """
    a, b = degree
    if a == 0:
        if b == 0:
            return ONE, "burnside"
        if b > 0:
            return PointScalar.e_power(b), "int"
        if b % 2 == 0:
            return PointScalar.kappa_negative(-b // 2), "int"
        return None
    if a > 0:
        if a % 2 == 0 and b == -a:
            return PointScalar.tau_power(a // 2), "int"
        return None
    if a % 2 == 0 and b == -a:
        return PointScalar.xi_power(-a // 2), "int"
    return None
