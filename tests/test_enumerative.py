"""Counting the 27 lines on a cubic surface, equivariantly."""

import re

import pytest

from quadrics import cli, enumerative
from quadrics.burnside import BurnsideScalar
from quadrics.engine import AmbiguousSolveError
from quadrics.enumerative import LineCountResult, euler_sym3, sym3_grading
from quadrics.nonequiv import euler_fixed_sym3, euler_sym3_rank2
from quadrics.presentation import load_presentation

B = BurnsideScalar
GR = load_presentation("Gr222")


def test_sym3_grading_lands_in_the_line_coset():
    even = sym3_grading("even")
    assert even.coset_key() == (4, 2)
    assert (even.one, even.sigma, even.omega) == (4, 4, (-2, 2, 0))
    odd = sym3_grading("odd")
    assert odd.coset_key() == (-4, -2)
    # real rank of Sym^3 of the dual tautological bundle, either way
    assert even.underlying_dim() == odd.underlying_dim() == 8
    with pytest.raises(ValueError):
        sym3_grading("sideways")


def test_rho_target_is_the_classical_count():
    top = euler_sym3_rank2(GR.underlying)
    assert str(top) == "27*c^2*y"
    # the classical degree: 27 lines, read off the top cell
    assert top.coefficient((2, 1)) == 27


def test_fixed_target_concentrates_on_the_conic_component():
    ring = GR.fixed_rings[2]
    assert str(euler_fixed_sym3(ring, "even")) == "6*x1*x2"
    assert str(euler_fixed_sym3(ring, "odd")) == "6*x1*x2"


def test_even_line_count():
    r = euler_sym3("even")
    assert isinstance(r, LineCountResult)
    assert r.alpha == B(5, 11)
    assert r.beta == 1
    assert (r.free_pairs, r.invariant_lines) == (10, 6)
    assert r.fixed_line_component == "11"
    assert r.total == 27
    assert 2 * r.free_pairs + r.invariant_lines + 1 == r.total
    assert r.alpha.rho == r.total


def test_odd_line_count_is_the_swap_of_the_even_one():
    even = euler_sym3("even")
    odd = euler_sym3("odd")
    assert odd.alpha == even.alpha
    assert odd.beta == even.beta
    assert (odd.free_pairs, odd.invariant_lines) == (10, 6)
    assert odd.fixed_line_component == "00"
    assert {even.fixed_line_component, odd.fixed_line_component} == {"00", "11"}
    assert odd.total == even.total == 27


def test_euler_class_element_matches_the_burnside_data():
    r = euler_sym3("even")
    key = r.element.grading.coset_key()
    assert key == (4, 2)
    # the section slot carries alpha itself
    section = GR.mono(z00=-3, z11=1, cl=1, cxl=1, x=1)
    assert r.element.terms[section].coeff == r.alpha


def test_to_json_is_stable():
    r = euler_sym3("odd")
    doc = r.to_json()
    assert doc == {
        "schema": "quadrics/lines27/1",
        "parity": "odd",
        "alpha": {"a": 5, "b": 11},
        "beta": 1,
        "free_pairs": 10,
        "invariant_lines": 6,
        "fixed_line_component": "00",
        "total": 27,
    }


def test_an_ambiguous_euler_solve_fails_loudly(monkeypatch):
    # an ambiguous solve raises, and the count does not catch it
    def ambiguous(space, grading, *targets):
        raise AmbiguousSolveError(f"underdetermined solve in degree {grading}")

    monkeypatch.setattr(enumerative, "solve_with_coefficients", ambiguous)
    with pytest.raises(AmbiguousSolveError, match=re.escape(
            f"in degree {sym3_grading('even')}")):
        euler_sym3("even")
    assert cli.run(["lines27", "--parity", "odd"]) == 1
