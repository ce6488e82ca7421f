"""Exact RO(Pi X)-graded C2-equivariant cohomology of the low quadrics.

The package computes, entirely over exact integer arithmetic, the
equivariant cohomology rings of the quadric hypersurfaces carrying a
two-fixed-component involution, the four-fixed-point quadric surface,
and the Grassmannian of lines in C^{2,2}, together with the refined
count of the 27 lines on an invariant cubic surface.

Layers, bottom up:

* `printing` -- how a term prints: signed sums of scaled power
  products, the one rule behind every printed class, degree, scalar
  and element.
* `burnside` / `scalars` -- the Burnside ring A(C2) and the fragment of
  the equivariant point ring the coset tables are dressed with.
* `grading` -- the free grading group over {1, sigma, W_components}
  with its canonical form, fixed degrees and coset keys.
* `nonequiv` -- ordinary truncated cohomology rings of points, quadrics
  and products of projective lines, used as evaluation targets.
* `presentation` -- letters, rewrite rules, stated relations, evaluation
  maps and coset-basis tables for each space.
* `engine` -- homogeneous ring elements, multiplication (a solve from
  evaluation pairs, or rewriting where evaluation cannot see the class),
  coefficient solving, and the presentation-wide verifier.
* `enumerative` -- the symmetric-cube Euler class computation.
* `cli` -- the `quadrics` command-line tool and expression language.
"""

from .burnside import BurnsideScalar, UnsolvableError, burnside_solve
from .engine import (AmbiguousSolveError, RingElement, annihilator_check,
                     multiply, normal_form, solve_with_coefficients,
                     verify_presentation)
from .enumerative import LineCountResult, euler_sym3, sym3_grading
from .grading import GradingElement, GradingGroup
from .nonequiv import (NonequivClass, TruncatedRing, euler_fixed_sym3,
                       euler_sym3_rank2)
from .presentation import (FixedTuple, SpacePresentation, load_presentation,
                           mono_str)
from .scalars import FragmentError, PointScalar, scalar_dressing
from .cli import Expression, ParseError, parse, run

__all__ = [
    "AmbiguousSolveError",
    "BurnsideScalar",
    "Expression",
    "FixedTuple",
    "FragmentError",
    "GradingElement",
    "GradingGroup",
    "LineCountResult",
    "NonequivClass",
    "ParseError",
    "PointScalar",
    "RingElement",
    "SpacePresentation",
    "TruncatedRing",
    "UnsolvableError",
    "annihilator_check",
    "burnside_solve",
    "euler_fixed_sym3",
    "euler_sym3",
    "euler_sym3_rank2",
    "load_presentation",
    "mono_str",
    "multiply",
    "normal_form",
    "parse",
    "run",
    "scalar_dressing",
    "solve_with_coefficients",
    "sym3_grading",
    "verify_presentation",
]
