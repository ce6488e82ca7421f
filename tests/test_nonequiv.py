"""Truncated integral cohomology rings of the fixed/underlying spaces."""

import pytest
import sympy

from quadrics.nonequiv import (
    NonequivClass, TruncatedRing, euler_fixed_sym3, euler_sym3_rank2,
    sym3_weight_expansion,
)


# --- oracle for the symmetric-cube Euler class ---------------------------
#
# For a rank-2 bundle with Chern roots a, b the third symmetric power has
# roots 3a, 2a+b, a+2b, 3b.  The expansion of their product in the Chern
# classes c = a + b, y = ab is computed here independently with sympy and
# must match the package's integer expansion exactly.

def test_sym3_expansion_against_chern_roots():
    a, b = sympy.symbols("a b")
    product = sympy.expand(3 * a * (2 * a + b) * (a + 2 * b) * 3 * b)
    expansion = sym3_weight_expansion()
    rebuilt = sympy.expand(sum(
        coeff * (a + b) ** i * (a * b) ** j for (i, j), coeff in expansion.items()
    ))
    assert sympy.simplify(product - rebuilt) == 0
    assert expansion == {(2, 1): 18, (0, 2): 9}


def test_sym3_euler_reduces_in_the_klein_quadric():
    ring = TruncatedRing.even_quadric(2)
    e = euler_sym3_rank2(ring)
    # y^2 = c^2 y here, so 18c^2 y + 9y^2 = 27 c^2 y
    assert e == NonequivClass.monomial(ring, (2, 1), 27)
    assert e.homogeneous_degree() == 8


def test_fixed_sym3_euler_on_the_middle_component():
    ring = TruncatedRing.proj_line_square()
    even = euler_fixed_sym3(ring, "even")
    odd = euler_fixed_sym3(ring, "odd")
    # 3x1(x1 + 2x2) = 6 x1 x2 = 3x2(x2 + 2x1)
    assert even == NonequivClass.monomial(ring, (1, 1), 6)
    assert odd == even


# --- ring construction ----------------------------------------------------

def test_point_and_zero():
    pt = TruncatedRing.point()
    assert pt.rank() == 1
    one = NonequivClass.unit(pt)
    assert one * one == one
    z = TruncatedRing.zero()
    assert z.rank() == 0
    assert not NonequivClass.unit(z)


def test_proj_line():
    ring = TruncatedRing.truncated_poly(2, "P1", "x")
    x = NonequivClass.monomial(ring, (1,))
    assert not x * x
    assert x.homogeneous_degree() == 2


def test_proj_line_square():
    ring = TruncatedRing.proj_line_square()
    x1 = NonequivClass.monomial(ring, (1, 0))
    x2 = NonequivClass.monomial(ring, (0, 1))
    assert not x1 * x1
    assert not x2 * x2
    assert x1 * x2 == NonequivClass.monomial(ring, (1, 1))
    assert ring.rank() == 4
    # c = x1 + x2 and y = x1 satisfy the even-quadric presentation for s = 1
    c = x1 + x2
    y = x1
    assert c * c == 2 * (c * y)
    assert y * y == NonequivClass.zero(ring)  # s = 1 odd: y^2 = 0


def test_truncated_poly():
    ring = TruncatedRing.truncated_poly(3)
    c = NonequivClass.monomial(ring, (1,))
    assert c * c == NonequivClass.monomial(ring, (2,))
    assert not c * c * c
    assert TruncatedRing.truncated_poly(1).rank() == 1


@pytest.mark.parametrize("s", [0, 1, 2, 3, 64])
def test_odd_quadric(s):
    ring = TruncatedRing.odd_quadric(s)
    assert ring.rank() == 2 * s + 2
    c = NonequivClass.from_exponents(ring, (1, 0))  # for s = 0 this is already 2y
    y = NonequivClass.monomial(ring, (0, 1))
    assert c ** (s + 1) == 2 * y
    assert not y * y
    assert y.homogeneous_degree() == 2 * s + 2
    top = NonequivClass.monomial(ring, (s, 1))
    assert top.homogeneous_degree() == 4 * s + 2
    assert not c * top


def test_odd_quadric_empty():
    assert TruncatedRing.odd_quadric(-1).rank() == 0


@pytest.mark.parametrize("s", [1, 2, 3, 4, 64])
def test_even_quadric(s):
    ring = TruncatedRing.even_quadric(s)
    assert ring.rank() == 2 * s + 2
    c = NonequivClass.monomial(ring, (1, 0))
    y = NonequivClass.monomial(ring, (0, 1))
    assert c ** (s + 1) == 2 * c * y
    if s % 2 == 0:
        assert y * y == NonequivClass.monomial(ring, (s, 1))
    else:
        assert not y * y
    assert y.homogeneous_degree() == 2 * s
    assert not c ** (s + 1) * y


def test_even_quadric_ruling_swap():
    # in the s = 1 case the two rulings are y and c - y with product the point
    ring = TruncatedRing.even_quadric(1)
    c = NonequivClass.monomial(ring, (1, 0))
    y = NonequivClass.monomial(ring, (0, 1))
    other = c - y
    assert not other * other
    assert y * other == NonequivClass.monomial(ring, (1, 1))


def test_a_generated_ring_that_is_not_associative_is_rejected():
    # odd-quadric-like with s = 2, but c^{s+2} = 3cy while c*c^{s+1} = 2cy;
    # commutative, homogeneous and generated by c and y
    s = 2
    basis = {(i, j): 2 * i + (2 * s + 2) * j for i in range(s + 1) for j in range(2)}

    def reduce_fn(raw):
        i, j = raw
        if j >= 2 or (i > s and j == 1):
            return {}
        if i > s:
            return {(i - s - 1, 1): 2 if i == s + 1 else 3}
        return {raw: 1}

    with pytest.raises(AssertionError, match="not associative"):
        TruncatedRing("bad", ("c", "y"), basis, reduce_fn)


def test_a_basis_key_the_generators_do_not_reach_is_rejected():
    basis = {(0,): 0, (2,): 4}  # x^2 without x
    with pytest.raises(AssertionError, match=r"\(2,\) is not generated"):
        TruncatedRing("gap", ("x",), basis, lambda raw: {raw: 1} if raw in basis else {})


def test_class_arithmetic():
    ring = TruncatedRing.even_quadric(2)
    c = NonequivClass.monomial(ring, (1, 0))
    y = NonequivClass.monomial(ring, (0, 1))
    u = 2 * c + y
    assert u - y == 2 * c
    assert (-u) + u == NonequivClass.zero(ring)
    assert u.homogeneous_degree() is None  # mixed degrees 2 and 4
    with pytest.raises(ValueError):
        NonequivClass.monomial(TruncatedRing.truncated_poly(2, "P1", "x"),
                               (1,)) + c


def test_rendering():
    ring = TruncatedRing.even_quadric(2)
    assert str(NonequivClass.monomial(ring, (2, 1), 27)) == "27*c^2*y"
    assert str(NonequivClass.unit(ring)) == "1"
    assert str(NonequivClass.zero(ring)) == "0"
    pls = TruncatedRing.proj_line_square()
    assert str(NonequivClass.monomial(pls, (1, 1), 6)) == "6*x1*x2"
    assert str(NonequivClass.monomial(pls, (1, 0)) -
               NonequivClass.monomial(pls, (0, 1))) == "x1 - x2"

def test_powers_by_squaring_match_the_loop():
    ring = TruncatedRing.odd_quadric(4)
    u = (NonequivClass.unit(ring) + NonequivClass.from_exponents(ring, (1, 0))
         + 3 * NonequivClass.from_exponents(ring, (0, 1)))
    assert u ** 0 == NonequivClass.unit(ring)
    with pytest.raises(ValueError, match="no inverses"):
        u ** -1
    looped = NonequivClass.unit(ring)
    for n in range(12):
        assert u ** n == looped, n
        looped = looped * u
