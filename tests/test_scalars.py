"""Point-ring scalar fragment: canonical collapses, products, dressings."""

import itertools

import pytest
from hypothesis import assume, given, strategies as st

from quadrics.burnside import BurnsideScalar, G, KAPPA, ONE as B_ONE
from quadrics.cli import parse
from quadrics.engine import render_terms
from quadrics.scalars import (
    FragmentError, PointScalar, ZERO, ONE, scalar_dressing,
)


def B(a, b=0):
    return BurnsideScalar(a, b)


# --- canonical collapses -------------------------------------------------

def test_g_kills_e():
    assert PointScalar(G, e=1) == ZERO
    assert PointScalar(G, e=5) == ZERO


def test_g_doubles_xi():
    assert PointScalar(G, xi=1) == PointScalar.xi_power(1, 2)
    assert PointScalar(B(1, 3), xi=2) == PointScalar.xi_power(2, 7)


def test_kappa_on_e_and_xi():
    assert PointScalar(KAPPA, e=3) == PointScalar.e_power(3, 2)
    assert PointScalar(KAPPA, xi=1) == ZERO


def test_mixed_e_xi_is_two_torsion():
    # 2*e*xi = e*tau(iota^2) = tau(rho(e)*iota^2) = 0, so the coefficient
    # of a mixed monomial only matters mod 2.
    assert PointScalar(B(2, 2), e=1, xi=1) == ZERO
    assert PointScalar(B(3, 3), e=1, xi=1) == PointScalar(B(1, 1), e=1, xi=1)
    assert PointScalar(B(0, 4), e=2, xi=3) == ZERO
    live = PointScalar(B(1, 1), e=1, xi=2)
    assert live != ZERO
    assert (live.rho_multiplier(), live.fix_multiplier()) == (0, 0)
    assert live * PointScalar.e_power(1) == PointScalar(B(1, 1), e=2, xi=2)


def test_tau_kills_e_and_negative_cone():
    assert PointScalar(B_ONE, e=2, tau=1) == ZERO
    assert PointScalar(B_ONE, tau=1, kneg=1) == ZERO


def test_tau_absorbs_xi():
    # xi * tau2 = g, xi^2 * tau2 = g*xi = 2xi, xi * tau4 = tau2
    assert PointScalar(B_ONE, xi=1, tau=1) == PointScalar.from_burnside(G)
    assert PointScalar(B_ONE, xi=2, tau=1) == PointScalar.xi_power(1, 2)
    assert PointScalar(B_ONE, xi=1, tau=2) == PointScalar.tau_power(1)


def test_burnside_acts_on_tau_through_rho():
    assert PointScalar(G, tau=1) == PointScalar.tau_power(1, 2)
    assert PointScalar(KAPPA, tau=1) == ZERO


def test_e_absorption_into_negative_cone():
    K1 = PointScalar.kappa_negative(1)
    assert PointScalar.e_power(2) * K1 == PointScalar.from_burnside(KAPPA)
    assert PointScalar.e_power(4) * K1 == PointScalar.e_power(2, 2)
    assert PointScalar.e_power(2) * PointScalar.kappa_negative(2) == K1
    assert PointScalar.e_power(3) * K1 == PointScalar.e_power(1, 2)


def test_odd_e_below_negative_cone_leaves_fragment():
    with pytest.raises(FragmentError):
        PointScalar.e_power(1) * PointScalar.kappa_negative(1)
    with pytest.raises(FragmentError):
        PointScalar.e_power(3) * PointScalar.kappa_negative(2)


def test_kappa_squared_doubles():
    K1 = PointScalar.kappa_negative(1)
    assert K1 * K1 == PointScalar.kappa_negative(2, 2)


def test_tau_products_transfer():
    t = PointScalar.tau_power(1)
    assert t * t == PointScalar.tau_power(2, 2)
    assert t * PointScalar.tau_power(2) == PointScalar.tau_power(3, 2)
    assert t * PointScalar.kappa_negative(1) == ZERO
    assert t * PointScalar.e_power(2) == ZERO
    assert t * PointScalar.xi_power(1) == PointScalar.from_burnside(G)


# --- gradings and multipliers -------------------------------------------

def test_gradings():
    assert ONE.grading() == (0, 0)
    assert PointScalar.e_power(3).grading() == (0, 3)
    assert PointScalar.xi_power(2).grading() == (-4, 4)
    assert PointScalar.tau_power(1).grading() == (2, -2)
    assert PointScalar.tau_power(2).grading() == (4, -4)
    assert PointScalar.kappa_negative(3).grading() == (0, -6)
    assert PointScalar(B_ONE, e=1, xi=1).grading() == (-2, 3)


def test_multipliers():
    assert (ONE.rho_multiplier(), ONE.fix_multiplier()) == (1, 1)
    g = PointScalar.from_burnside(G)
    assert (g.rho_multiplier(), g.fix_multiplier()) == (2, 0)
    e2 = PointScalar.e_power(2)
    assert (e2.rho_multiplier(), e2.fix_multiplier()) == (0, 1)
    xi = PointScalar.xi_power(1)
    assert (xi.rho_multiplier(), xi.fix_multiplier()) == (1, 0)
    exi = PointScalar(B_ONE, e=1, xi=1)
    assert (exi.rho_multiplier(), exi.fix_multiplier()) == (0, 0)
    t = PointScalar.tau_power(1, 3)
    assert (t.rho_multiplier(), t.fix_multiplier()) == (6, 0)
    k = PointScalar.kappa_negative(2, 3)
    assert (k.rho_multiplier(), k.fix_multiplier()) == (0, 6)
    kap = PointScalar.from_burnside(KAPPA)
    assert (kap.rho_multiplier(), kap.fix_multiplier()) == (0, 2)


def test_scaling_equals_the_constructor():
    # scale builds some products without canonicalizing; every product must
    # still be the one the constructor makes, torsion shapes and zero included
    small = range(-2, 3)
    scalars = set()
    for a, b, e, xi, tau, kneg in itertools.product(small, small, *[range(3)] * 4):
        try:
            scalars.add(PointScalar(B(a, b), e, xi, tau, kneg))
        except FragmentError:
            continue
    multipliers = [*range(-3, 4), *(B(x, y) for x, y in itertools.product(small, small))]
    for s in scalars:
        for m in multipliers:
            got, want = s.scale(m), PointScalar(s.coeff * m, *s.shape())
            assert (got.coeff.a, got.coeff.b, got.shape()) == (
                want.coeff.a, want.coeff.b, want.shape()), (s, m)


# --- dressing lookup ------------------------------------------------------

def test_dressing_enumeration():
    assert scalar_dressing((0, 0)) == (ONE, "burnside")
    assert scalar_dressing((0, 3)) == (PointScalar.e_power(3), "int")
    assert scalar_dressing((0, -4)) == (PointScalar.kappa_negative(2), "int")
    assert scalar_dressing((0, -3)) is None
    assert scalar_dressing((2, -2)) == (PointScalar.tau_power(1), "int")
    assert scalar_dressing((4, -4)) == (PointScalar.tau_power(2), "int")
    assert scalar_dressing((2, -1)) is None
    assert scalar_dressing((2, 0)) is None
    assert scalar_dressing((-2, 2)) == (PointScalar.xi_power(1), "int")
    assert scalar_dressing((-4, 4)) == (PointScalar.xi_power(2), "int")
    # e^k*xi^j gradings (k >= 1) only carry 2-torsion, never a free class.
    assert scalar_dressing((-2, 3)) is None
    assert scalar_dressing((-2, 1)) is None
    assert scalar_dressing((-4, 6)) is None
    assert scalar_dressing((-3, 3)) is None


def test_dressing_lives_only_on_the_two_lines():
    # the candidate dressing skips a gap (a, b) with a != 0 and a + b != 0 unasked
    for a in range(-40, 41):
        for b in range(-40, 41):
            if a and a + b:
                assert scalar_dressing((a, b)) is None, (a, b)


def test_dressing_matches_grading():
    for a in range(-6, 7):
        for b in range(-6, 7):
            found = scalar_dressing((a, b))
            if found is not None:
                template, domain = found
                assert template.grading() == (a, b)
                assert domain in ("burnside", "int")


# --- random algebra -------------------------------------------------------

burnsides = st.builds(BurnsideScalar, st.integers(-9, 9), st.integers(-9, 9))


def _build_scalar(coeff, e, xi, tau, kneg):
    try:
        return PointScalar(coeff, e=e, xi=xi, tau=tau, kneg=kneg)
    except FragmentError:
        return None


scalars = st.builds(
    _build_scalar, burnsides,
    e=st.integers(0, 5), xi=st.integers(0, 3),
    tau=st.integers(0, 2), kneg=st.integers(0, 2),
).filter(lambda s: s is not None)


def _try_mul(u, v):
    try:
        return u * v
    except FragmentError:
        return None


@given(scalars, scalars)
def test_product_commutes(u, v):
    assert _try_mul(u, v) == _try_mul(v, u)


@given(scalars, scalars, scalars)
def test_product_associates(u, v, w):
    try:
        lhs = (u * v) * w
        rhs = u * (v * w)
    except FragmentError:
        assume(False)
        return
    assert lhs == rhs


@given(scalars, scalars)
def test_product_grades_and_characters(u, v):
    p = _try_mul(u, v)
    assume(p is not None)
    if p:
        assert p.grading() == tuple(x + y for x, y in zip(u.grading(), v.grading()))
    assert p.rho_multiplier() == u.rho_multiplier() * v.rho_multiplier()
    assert p.fix_multiplier() == u.fix_multiplier() * v.fix_multiplier()


@given(scalars, scalars, scalars)
def test_left_distributivity_same_shape(u, v, w):
    assume(v.shape() == w.shape() or not v or not w)
    try:
        lhs = u * (v + w)
        rhs = u * v + u * w
    except (FragmentError, ValueError):
        assume(False)
        return
    assert lhs == rhs


# --- printing -------------------------------------------------------------

@given(scalars, scalars, scalars)
def test_a_scalar_with_a_shape_has_an_integer_coefficient(u, v, w):
    # render_terms parenthesizes a scalar only when its coefficient has both
    # a 1-part and a g-part; that is a sum only on a bare Burnside scalar
    uv = _try_mul(u, v)
    for s in (u, v, w, uv, uv and _try_mul(uv, w)):
        if s is not None and s.shape() != (0, 0, 0, 0):
            assert s.coeff.b == 0, s


@pytest.mark.parametrize("text", [
    "(5+11*g)*x", "(-1+g)*x",  # a Burnside sum before a monomial
    "-g*x", "2*g*x", "-e^2*x", "e^-2*kappa*x", "3*xi*x", "5+11*g",
])
def test_render_terms_parenthesizes_only_a_burnside_sum_before_a_monomial(text):
    terms = parse(text).terms
    assert len(terms) == 1
    assert render_terms(terms) == text
