"""Counting the 27 lines on an invariant cubic surface, with symmetry.

A line in P^3 is a point of the Grassmannian of 2-planes in C^4, and the
lines on a cubic surface are the zeros of the induced section of
Sym^3(U*), U the tautological bundle.  Over the complex numbers the count
is the Euler class, the famous 27.  When the cubic is preserved by the
C2-action of signature (2, 2) the count refines to a Burnside-ring
element alpha in A(C2): its rho-character is the classical 27, its
fix-character counts the involution-invariant lines with local signs.

This module runs that computation inside the exact coset-table engine:

* `sym3_grading` places the rank-4 Euler class in the grading group of
  the Grassmannian presentation.  The twist data depends on a choice of
  equivariant lift of Sym^3(U*); the two lifts are labelled "even" and
  "odd" and point the vanishing locus at opposite rulings.
* `euler_sym3` assembles the underlying and fixed-point Euler classes
  of the symmetric cube, solves for the equivariant class in the coset
  basis, and decomposes the answer geometrically:

      alpha = (invariant_lines + free_pairs * g) + (g - 1),

  where the trailing unit-square correction, paired with the e^2 term
  `beta`, is the contribution of one distinguished invariant line lying
  over a point component of the fixed locus.  Conservation of the
  underlying count reads 2*free_pairs + invariant_lines + beta = 27.

Both lifts read alpha straight off the table, with no change of unit.
Every step is checked: the divided-slot recombination must be the
solved class, and the Burnside split must restrict correctly along the
two-step flag chain; both compare evaluation pairs (engine.same_class).
"""

from __future__ import annotations

from .burnside import BurnsideScalar
from .engine import RingElement, normal_form, same_class, solve_with_coefficients
from .grading import GradingElement
from .nonequiv import NonequivClass, euler_fixed_sym3, euler_sym3_rank2
from .presentation import (FixedTuple, SpacePresentation, load_presentation,
                           mono_str)
from .scalars import PointScalar

PARITIES = ("even", "odd")


def sym3_grading(parity: str = "even") -> GradingElement:
    """The degree of the symmetric-cube Euler class on the Grassmannian.

    Sym^3(U*) has rank 4, so its Euler class sits in real degree 8.  The
    chosen lift concentrates the full rank-4 twist on one ruling family
    and a rank-2 twist on the middle fixed component; consequently the
    fixed sub-bundle has rank 4 over one point component of the fixed
    locus, rank 0 over the other, and rank 2 over the quadric surface
    component.
    """
    if parity not in PARITIES:
        raise ValueError(f"parity must be one of {PARITIES}, got {parity!r}")
    space = load_presentation("Gr222")
    pole = "11" if parity == "even" else "00"
    other = "00" if parity == "even" else "11"
    deg = space.group.element(8, omega={pole: 4, "1": 2})
    profile = dict(deg.fixed_profile())
    if deg.underlying_dim() != 8 or profile != {pole: 0, other: 8, "1": 4}:
        raise RuntimeError(f"rank bookkeeping failed for parity {parity!r}")
    return deg


def _euler_targets(space: SpacePresentation, grading: GradingElement,
                   parity: str) -> tuple[NonequivClass, FixedTuple]:
    """Underlying and fixed-locus Euler classes of the symmetric cube.

    Over the quadric-surface component the fixed sub-bundle is the
    rank-2 piece with weights handled by `euler_fixed_sym3`; over a
    point component the Euler class is 1 when the fixed rank is 0 and
    vanishes otherwise (a point has no positive-degree cohomology).
    """
    rho = euler_sym3_rank2(space.underlying)
    parts = []
    for label, ring in zip(space.group.labels, space.fixed_rings):
        if ring.vars == ("x1", "x2"):
            parts.append(euler_fixed_sym3(ring, parity))
        elif grading.fixed_degree(label) == 0:
            parts.append(NonequivClass.unit(ring))
        else:
            parts.append(NonequivClass.zero(ring))
    return rho, FixedTuple(parts)


class LineCountResult:
    """The refined line count and its geometric decomposition.

    alpha is the Burnside-valued count (rho = 27, fix = 5), beta the
    coefficient of the e^2-dressed slot, free_pairs the conjugate pairs of
    non-invariant lines, invariant_lines the invariant lines counting with
    sign +1, fixed_line_component the point component under the
    distinguished line, total the underlying count read off the top class,
    and element the Euler class in the coset-table basis.
    """

    __slots__ = ("parity", "alpha", "beta", "free_pairs", "invariant_lines",
                 "fixed_line_component", "total", "element")

    def __init__(self, *, parity: str, alpha: BurnsideScalar, beta: int,
                 free_pairs: int, invariant_lines: int, fixed_line_component: str,
                 total: int, element: RingElement):
        self.parity = parity
        self.alpha = alpha
        self.beta = beta
        self.free_pairs = free_pairs
        self.invariant_lines = invariant_lines
        self.fixed_line_component = fixed_line_component
        self.total = total
        self.element = element

    def to_json(self) -> dict:
        return {
            "schema": "quadrics/lines27/1",
            "parity": self.parity,
            "alpha": {"a": self.alpha.a, "b": self.alpha.b},
            "beta": self.beta,
            "free_pairs": self.free_pairs,
            "invariant_lines": self.invariant_lines,
            "fixed_line_component": self.fixed_line_component,
            "total": self.total,
        }


def _chain_split_holds(alpha: BurnsideScalar, c21: BurnsideScalar) -> bool:
    """Check the Burnside split along the two-step flag chain.

    Restricting the count to the chain presentation with two divided
    steps turns the section slot into z0*cw*cxw and the divided slot
    into z1*cxw^2; the split alpha = c21 + (g - 1) must survive there
    as one class, compared by evaluation pair (engine.same_class).
    """
    chain = load_presentation("X1q", 2)
    section = chain.mono(z0=1, cw=1, cxw=1)
    lhs = RingElement.from_terms(chain, [
        (PointScalar.from_burnside(alpha), section),
        (PointScalar.e_power(2), chain.mono(cxw=1)),
    ])
    rhs = RingElement.from_terms(chain, [
        (PointScalar.from_burnside(c21), section),
        (PointScalar.from_burnside(BurnsideScalar(1, 0)), chain.mono(z1=1, cxw=2)),
    ])
    return same_class(chain, lhs.grading, lhs.evaluate(), rhs.evaluate())


def euler_sym3(parity: str = "even") -> LineCountResult:
    """Compute the equivariant 27-lines count for the chosen lift."""
    space = load_presentation("Gr222")
    grading = sym3_grading(parity)
    rho_target, fix_target = _euler_targets(space, grading, parity)

    element, records, _ = solve_with_coefficients(
        space, grading, rho_target, fix_target)
    burnside_slots = [(m, c) for _, m, c in records
                      if isinstance(c, BurnsideScalar) and c]
    integer_slots = [(t, m, c) for t, m, c in records
                     if isinstance(c, int) and c]
    if len(burnside_slots) != 1 or len(integer_slots) != 1:
        raise RuntimeError("the Euler class should load exactly one Burnside "
                           "slot and one e^2 slot, got "
                           + ", ".join(mono_str(m) for _, m, c in records if c))
    # The odd lift writes the class on the xp slots of the table; xp is the
    # section disjoint from x, so the table coefficient is alpha itself.
    section_mono, alpha = burnside_slots[0]
    _, beta_mono, beta = integer_slots[0]

    # Recombination: trading the e^2 slot for the divided-power monomial
    # z1*cxl * (beta slot) absorbs the unit-square correction g - 1 and
    # leaves the clean count c21 = invariant_lines + free_pairs * g on
    # the section slot.
    divided = space.mono(dict(beta_mono), z1=1, cxl=1)
    nf_divided = normal_form(RingElement.from_mono(space, divided))
    delta = nf_divided.terms.get(section_mono)
    if delta is None or not delta.is_burnside():
        raise RuntimeError("the divided monomial does not reduce onto the "
                           "section slot")
    c21 = alpha - delta.coeff
    recombined = RingElement.from_terms(space, [
        (PointScalar.from_burnside(c21), section_mono),
        (PointScalar.integer(1), divided),
    ])
    if not same_class(space, grading, recombined.evaluate(), element.evaluate()):
        raise RuntimeError("recombined class differs from the solved class")
    if delta.coeff != BurnsideScalar(-1, 1):
        raise RuntimeError(f"unexpected correction term {delta.coeff}")

    # The distinguished invariant line lies over the point component
    # where the divided monomial has its fixed-point support.
    _, divided_fix = space.eval_mono(divided)
    live = [label for label, part
            in zip(space.group.labels, divided_fix.parts) if part]
    pole = "11" if parity == "even" else "00"
    if live != [pole]:
        raise RuntimeError(f"fixed support {live} does not single out the "
                           "expected point component")

    top_degree = max(space.underlying.degree_of(key)
                     for key in space.underlying.basis_keys())
    top = [key for key in space.underlying.basis_keys()
           if space.underlying.degree_of(key) == top_degree]
    if len(top) != 1:
        raise RuntimeError("the underlying quadric should have a unique "
                           "top-degree class")
    total = rho_target.coefficient(top[0])

    result = LineCountResult(
        parity=parity,
        alpha=alpha,
        beta=beta,
        free_pairs=c21.b,
        invariant_lines=c21.a,
        fixed_line_component=pole,
        total=total,
        element=element,
    )
    if result.alpha.rho != total:
        raise RuntimeError(f"alpha = {alpha} does not refine the underlying "
                           f"count {total}")
    if 2 * result.free_pairs + result.invariant_lines + result.beta != total:
        raise RuntimeError("line conservation fails: "
                           f"2*{result.free_pairs} + {result.invariant_lines} "
                           f"+ {result.beta} != {total}")
    if not _chain_split_holds(alpha, c21):
        raise RuntimeError("the Burnside split does not restrict correctly "
                           "along the flag chain")
    return result
