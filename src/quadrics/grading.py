"""Gradings for cohomology indexed on representations of the fundamental groupoid.

The grading group of a space with fixed-set components labelled c_1, ..., c_r
is the free abelian group on 1, sigma and dual-line classes W_{c_1}, ...,
W_{c_r}, modulo the single relation

    W_{c_1} + ... + W_{c_r} = 2*sigma - 2.

Every element has a unique canonical form in which the last label's W does
not appear; all arithmetic works on that form.  Restriction to the fixed
component c sends W_c to 2*sigma - 2 and every other W to 0, which gives the
fixed-degree bookkeeping.  The coset key -- the W-offsets relative to the
first label -- indexes the additive coset tables of the presentations.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from .printing import scaled, signed_sum


class GradingGroup:
    __slots__ = ("labels",)

    def __init__(self, labels: Iterable[str]):
        labels = tuple(labels)
        if len(labels) < 2:
            raise ValueError("a grading group needs at least two component labels")
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate component labels: {labels}")
        self.labels = labels

    def element(self, one: int = 0, sigma: int = 0,
                omega: Mapping[str, int] | None = None) -> "GradingElement":
        """Canonicalize integer coordinates, eliminating the last label's W."""
        w = [0] * len(self.labels)
        if omega:
            for label, coeff in omega.items():
                w[self.labels.index(label)] += coeff
        last = w[-1]
        if last:
            # W_last = 2*sigma - 2 - sum of the other W's
            one -= 2 * last
            sigma += 2 * last
            w = [c - last for c in w]
            w[-1] = 0
        return GradingElement(self, one, sigma, tuple(w))

    def zero(self) -> "GradingElement":
        return self.element()

    def omega(self, label: str) -> "GradingElement":
        return self.element(omega={label: 1})

    def __eq__(self, other) -> bool:
        return isinstance(other, GradingGroup) and self.labels == other.labels

    def __hash__(self):
        return hash(self.labels)

    def __repr__(self):
        return f"GradingGroup({list(self.labels)!r})"


class GradingElement:
    __slots__ = ("group", "one", "sigma", "omega")

    def __init__(self, group: GradingGroup, one: int, sigma: int,
                 omega: tuple[int, ...]):
        if len(omega) != len(group.labels) or omega[-1] != 0:
            raise ValueError("non-canonical coordinates; build elements via GradingGroup.element")
        self.group = group
        self.one = one
        self.sigma = sigma
        self.omega = omega

    # --- abelian group structure ---

    def _check(self, other: "GradingElement"):
        if self.group != other.group:
            raise ValueError("gradings live in different groups")

    def __add__(self, other: "GradingElement") -> "GradingElement":
        self._check(other)
        return GradingElement(self.group, self.one + other.one, self.sigma + other.sigma,
                              tuple(a + b for a, b in zip(self.omega, other.omega)))

    def __sub__(self, other: "GradingElement") -> "GradingElement":
        self._check(other)
        return GradingElement(self.group, self.one - other.one, self.sigma - other.sigma,
                              tuple(a - b for a, b in zip(self.omega, other.omega)))

    def __mul__(self, n: int) -> "GradingElement":
        return GradingElement(self.group, n * self.one, n * self.sigma,
                              tuple(n * a for a in self.omega))

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return (isinstance(other, GradingElement) and self.group == other.group
                and self.one == other.one and self.sigma == other.sigma
                and self.omega == other.omega)

    def __hash__(self):
        return hash((self.group, self.one, self.sigma, self.omega))

    # --- the maps the engine consumes ---

    def underlying_dim(self) -> int:
        """Total degree of the underlying nonequivariant restriction."""
        return self.one + self.sigma

    def fixed_degree(self, label: str) -> int:
        """Degree of the restriction to the fixed component `label`."""
        return self.one - 2 * self.omega[self.group.labels.index(label)]

    def fixed_profile(self) -> tuple[tuple[str, int], ...]:
        return tuple((label, self.fixed_degree(label)) for label in self.group.labels)

    def coset_key(self) -> tuple[int, ...]:
        """W-offsets relative to the first label; constant on BU(1)-part cosets."""
        w0 = self.omega[0]
        return tuple(w - w0 for w in self.omega[1:])

    def to_ro_c2(self) -> tuple[int, int]:
        """The (1, sigma) pair, defined only when no W appears."""
        if any(self.omega):
            raise ValueError(f"{self} is not an RO(C2) grading")
        return (self.one, self.sigma)

    # --- rendering ---

    def __str__(self):
        coords = (self.one, self.sigma, *self.omega)
        symbols = ("", "s", *(f"W{label}" for label in self.group.labels))
        return signed_sum(scaled(str(n), symbol, sep="")
                          for n, symbol in zip(coords, symbols) if n)

    def __repr__(self):
        return f"<{self}>"

