"""Truncated integral cohomology rings of the fixed/underlying spaces."""

import pytest
import sympy

from quadrics.nonequiv import (
    NonequivClass, TruncatedRing, euler_fixed_sym3, euler_sym3_rank2,
    sym3_weight_expansion,
)
from quadrics.presentation import load_presentation


# --- the ring reference ---------------------------------------------------
#
# A ring multiplies by its family's reduce and keeps no product table.  This
# reference rebuilds the full table from the reduce and checks the ring
# axioms on it, for every ring the program can build.

def product_table(ring):
    """Every product of two basis keys, as the reduction of their exponent sum.

    A product past the window of a window ring raises in its reduce; that
    pair is left out of the table, and so is every check that needs it.
    """
    table = {}
    for k1 in ring.basis_keys():
        for k2 in ring.basis_keys():
            try:
                table[(k1, k2)] = ring.reduce_exponents(
                    tuple(a + b for a, b in zip(k1, k2)))
            except RuntimeError:
                pass
    return table


def check_ring_axioms(ring):
    """Check commutativity, homogeneity, generation and associativity.

    The generators g are the basis keys of exponent sum 1.  The unit must
    square to itself, and every other key k must be (k - g)*g for each g
    with k - g in the basis, and for at least one.  With commutativity,
    (a*b)*g == a*(b*g) for basis a, b then gives (a*b)*c == a*(b*c) by
    induction on the degree of c: for c = 1 as 1*k = (1*(k - g))*g = k,
    and for c = (c - g)*g as a*(b*c) = (a*(b*(c - g)))*g = ((a*b)*(c - g))*g.
    """
    keys = ring.basis_keys()
    table = product_table(ring)
    for (k1, k2), prod in table.items():
        if prod != table.get((k2, k1)):
            raise AssertionError(f"{ring.name}: product not commutative")
        target = ring.degree_of(k1) + ring.degree_of(k2)
        for k, n in prod.items():
            if n and (k not in keys or ring.degree_of(k) != target):
                raise AssertionError(
                    f"{ring.name}: {k1}*{k2} not homogeneous of degree {target}")
    gens = [g for g in keys if sum(g) == 1]
    for k in keys:
        below = [(k, k)] if not any(k) else [
            (tuple(a - b for a, b in zip(k, g)), g) for g in gens]
        below = [pair for pair in below if pair[0] in keys]
        if not below or any(table[pair] != {k: 1} for pair in below):
            raise AssertionError(f"{ring.name}: {k} is not generated by {ring.vars}")

    def times(d, k):
        out = {}
        for k1, n in d.items():
            for k2, m in table[(k1, k)].items():
                out[k2] = out.get(k2, 0) + n * m
        return {key: v for key, v in out.items() if v}

    for (k1, k2), prod in table.items():
        for g in gens:
            try:
                left, right = times(prod, g), times(table[(k2, g)], k1)
            except KeyError:  # the triple product leaves the window
                continue
            if left != right:
                raise AssertionError(f"{ring.name}: product not associative")


# every space up to q = 16, written out
LOADABLE = (
    [("BU1", None), ("Q22", None), ("Gr222", None)]
    + [("X1q", q) for q in range(17)]
    + [("Q_BD", q) for q in range(17)]
    + [("Q_DD", q) for q in range(2, 17)]
)


def buildable_rings():
    """The underlying and fixed rings of every loadable space, and large quadrics."""
    rings = {}
    for name, q in LOADABLE:
        space = load_presentation(name, q)
        for ring in (space.underlying, *space.fixed_rings):
            rings[id(ring)] = ring
    for s in (32, 64):
        for ring in (TruncatedRing.odd_quadric(s), TruncatedRing.even_quadric(s)):
            rings[id(ring)] = ring
    return list(rings.values())


def test_every_buildable_ring_satisfies_the_ring_axioms():
    rings = buildable_rings()
    assert len(rings) == 61
    for ring in rings:
        check_ring_axioms(ring)


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
    ring = TruncatedRing.truncated_poly(2)
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


# every s a loadable space uses, and the large ones
@pytest.mark.parametrize("s", [*range(17), 32, 64])
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


@pytest.mark.parametrize("s", [*range(1, 17), 32, 64])
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
        check_ring_axioms(TruncatedRing("bad", ("c", "y"), basis, reduce_fn))


def test_a_basis_key_the_generators_do_not_reach_is_rejected():
    basis = {(0,): 0, (2,): 4}  # x^2 without x
    with pytest.raises(AssertionError, match=r"\(2,\) is not generated"):
        check_ring_axioms(TruncatedRing(
            "gap", ("x",), basis, lambda raw: {raw: 1} if raw in basis else {}))


def test_construction_multiplies_nothing():
    def reduce_fn(raw):
        raise AssertionError(f"reduce called on {raw}")

    ring = TruncatedRing("lazy", ("c",), {(0,): 0, (1,): 2, (2,): 4}, reduce_fn)
    assert ring.rank() == 3
    assert ring.basis_keys() == ((0,), (1,), (2,))
    c = NonequivClass.monomial(ring, (1,))
    zero = NonequivClass.zero(ring)
    assert c * zero == zero and zero * c == zero
    assert str(3 * c + c) == "4*c"
    with pytest.raises(AssertionError, match=r"reduce called on \(2,\)"):
        c * c


def test_a_class_on_a_key_outside_the_basis_is_rejected():
    ring = TruncatedRing.odd_quadric(2)
    with pytest.raises(ValueError, match=r"\(9, 9\) is not a basis monomial of Q5"):
        NonequivClass.monomial(ring, (9, 9))


def test_the_window_ring_raises_past_its_last_power():
    ring = TruncatedRing.poly_window(4, "w")
    c = NonequivClass.monomial(ring, (1,))
    assert c ** 3 == NonequivClass.monomial(ring, (3,))
    with pytest.raises(RuntimeError, match=r"w: c\^4 lies past the window c\^0..c\^3"):
        c ** 4


def test_class_arithmetic():
    ring = TruncatedRing.even_quadric(2)
    c = NonequivClass.monomial(ring, (1, 0))
    y = NonequivClass.monomial(ring, (0, 1))
    u = 2 * c + y
    assert u - y == 2 * c
    assert (-u) + u == NonequivClass.zero(ring)
    assert u.homogeneous_degree() is None  # mixed degrees 2 and 4
    with pytest.raises(ValueError):
        NonequivClass.monomial(TruncatedRing.truncated_poly(2), (1,)) + c


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
