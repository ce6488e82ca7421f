"""Burnside ring arithmetic and the two-characters solver."""

import pytest
from hypothesis import given, strategies as st

from quadrics.burnside import (
    BurnsideScalar, UnsolvableError, burnside_solve,
    ONE, G, KAPPA, ONE_MINUS_KAPPA,
)

ints = st.integers(min_value=-10**6, max_value=10**6)


def test_g_squared_is_two_g():
    assert G * G == BurnsideScalar(0, 2)
    assert G * G == 2 * G


def test_kappa_is_two_minus_g():
    assert KAPPA == BurnsideScalar(2, -1)
    assert KAPPA * KAPPA == 2 * KAPPA
    assert ONE - KAPPA == ONE_MINUS_KAPPA
    assert ONE_MINUS_KAPPA * ONE_MINUS_KAPPA == ONE


def test_characters():
    assert (ONE.rho, ONE.fix) == (1, 1)
    assert (G.rho, G.fix) == (2, 0)
    assert (KAPPA.rho, KAPPA.fix) == (0, 2)
    assert (ONE_MINUS_KAPPA.rho, ONE_MINUS_KAPPA.fix) == (1, -1)


@given(ints, ints, ints, ints)
def test_mul_matches_characters(a, b, c, d):
    u = BurnsideScalar(a, b)
    v = BurnsideScalar(c, d)
    w = u * v
    assert w.rho == u.rho * v.rho
    assert w.fix == u.fix * v.fix


@given(ints, ints, ints, ints, ints, ints)
def test_ring_axioms(a, b, c, d, p, q):
    u, v, w = BurnsideScalar(a, b), BurnsideScalar(c, d), BurnsideScalar(p, q)
    assert u * v == v * u
    assert (u * v) * w == u * (v * w)
    assert u * (v + w) == u * v + u * w


def test_solve_line_count():
    assert burnside_solve(27, 5) == BurnsideScalar(5, 11)


def test_solve_unit():
    assert burnside_solve(1, -1) == ONE_MINUS_KAPPA


def test_solve_parity_obstruction():
    with pytest.raises(UnsolvableError):
        burnside_solve(2, 1)
    with pytest.raises(UnsolvableError):
        burnside_solve(0, 3)


@given(ints, ints)
def test_solve_round_trip(a, b):
    u = BurnsideScalar(a, b)
    assert burnside_solve(u.rho, u.fix) == u


@given(ints, ints)
def test_solve_iff_parity(r, f):
    if (r - f) % 2 == 0:
        s = burnside_solve(r, f)
        assert (s.rho, s.fix) == (r, f)
    else:
        with pytest.raises(UnsolvableError):
            burnside_solve(r, f)
