"""Four-point quadric: point pushforwards and the bundle-class dictionary."""

import itertools

from quadrics.burnside import BurnsideScalar
from quadrics.engine import (
    RingElement, multiply, normal_form, solve_with_coefficients,
)
from quadrics.nonequiv import NonequivClass
from quadrics.presentation import load_presentation, mono_str
from quadrics.scalars import PointScalar

B = BurnsideScalar
Q22 = load_presentation("Q22")


def from_decl(terms):
    return RingElement.from_terms(Q22, terms)


def solve_pushforward(name):
    rho, fix = Q22.pushforward_targets[name]
    declared = from_decl(Q22.pushforwards[name])
    el, records, ambiguous = solve_with_coefficients(
        Q22, declared.grading, rho, fix, ansatz=Q22.pushforward_ansatz)
    assert not ambiguous
    return el, declared, [c for _, _, c in records]


def test_pushforward_targets_are_the_four_point_classes():
    und = Q22.underlying
    x1 = NonequivClass.from_exponents(und, (1, 0))
    x2 = NonequivClass.from_exponents(und, (0, 1))
    expected = {
        "i0": (x1, "(1, 0, 1, 0)"),
        "i1": (x2, "(1, 0, 0, 1)"),
        "i2": (x2, "(0, 1, 1, 0)"),
        "i3": (x1, "(0, 1, 0, 1)"),
    }
    for name, (rho, fix) in expected.items():
        got_rho, got_fix = Q22.pushforward_targets[name]
        assert got_rho == rho and str(got_fix) == fix


def test_pushforward_solves_recover_the_declared_formulas():
    for name in ("i0", "i1", "i2", "i3"):
        el, declared, _ = solve_pushforward(name)
        assert normal_form(el) == normal_form(declared), name


def test_first_point_pushforward_coefficients():
    # (alpha, beta, gamma, delta) against the section / euler / unit / divided
    # ansatz: the first fixed point needs only the section and the e^2 dressing
    _, _, coeffs = solve_pushforward("i0")
    assert coeffs == [B(-1, 1), B(0, 0), 1, 0]


def test_second_point_pushforward_coefficients():
    _, _, coeffs = solve_pushforward("i1")
    assert coeffs == [B(-1, 0), B(-1, 1), 1, 1]


def test_third_point_pushforward_has_delta_minus_one():
    el, _, coeffs = solve_pushforward("i2")
    assert coeffs == [B(1, -1), B(1, 0), 0, -1]
    assert str(el) == "(1-g)*x + z00*z11*cw - e^-2*kappa*z00*z11*cw*x"


def test_fourth_point_pushforward_is_the_bare_section():
    _, _, coeffs = solve_pushforward("i3")
    assert coeffs == [B(1, 0), B(0, 0), 0, 0]


def test_line_bundle_euler_classes_kill_their_twists():
    ids = {k: from_decl(v) for k, v in Q22.identifications.items()}
    assert multiply(ids["cw1"], ids["cxw1"]).is_zero()
    assert multiply(ids["cw2"], ids["cxw2"]).is_zero()
    # under evaluation too
    for name in ("cw1", "cxw1", "cw2", "cxw2"):
        rho, fix = ids[name].evaluate()
        assert rho or fix, name  # the classes themselves are not zero
    r1, f1 = ids["cw1"].evaluate()
    r2, f2 = ids["cxw1"].evaluate()
    assert (r1 * r2, f1 * f2) == (r1 * 0, f1 * 0)


def test_tensor_euler_class_factors_through_the_rulings():
    ids = {k: from_decl(v) for k, v in Q22.identifications.items()}
    lhs = multiply(ids["cw_bundle"], ids["cxw_bundle"])
    twist = RingElement.from_mono(
        Q22, Q22.mono(z00=2, z01=1, z10=1), PointScalar.tau_power(1))
    rhs = multiply(twist, multiply(ids["cw1"], ids["cw2"]))
    assert normal_form(lhs) == normal_form(rhs)
    assert str(normal_form(lhs)) == "tau2*z00*z11*cw*x"
    lr, lf = lhs.evaluate()
    rr, rf = rhs.evaluate()
    assert lr == rr and lf == rf
    assert str(lr) == "2*x1*x2" and not lf


def test_identification_monomials_use_inverse_ruling_coordinates():
    # first ruling: section divided by the two diagonal-component classes
    assert [mono_str(m) for _, m in Q22.identifications["cw1"]] == ["z00^-1*z01^-1*x"]
    assert [mono_str(m) for _, m in Q22.identifications["cxw1"]] == ["z11^-1*z10^-1*x0"]


def test_every_monomial_of_the_box_normal_forms_to_its_evaluation():
    # z00^a*z11^b*z01^c*z10^d*s with a..d in [-2, 2]: x0, x1 and x2 license
    # inverses that x does not, and their cosets' tables span too
    count = 0
    for exps in itertools.product(range(-2, 3), repeat=4):
        zetas = dict(zip(("z00", "z11", "z01", "z10"), exps))
        for letter in ("x", "x0", "x1", "x2", "cw", "cxw"):
            mono = Q22.mono(zetas, **{letter: 1})
            if not Q22.is_admissible(mono):
                continue
            u = RingElement.from_mono(Q22, mono)
            assert normal_form(u).evaluate() == u.evaluate(), mono_str(mono)
            count += 1
    assert count == 1350


def test_a_product_onto_a_once_degenerate_coset_multiplies():
    # it rewrites to z11^-1*z01^-1*z10^-2*cxw^2*x0, off the table of its
    # coset (-1, -3, -4), and is re-solved onto that table's x0 block
    u = RingElement.from_mono(Q22, Q22.mono(z10=-1, cxw=1))
    v = RingElement.from_mono(Q22, Q22.mono(z11=-1, z01=-1, z10=-1, cxw=1, x0=1))
    product = multiply(u, v)
    assert str(product) == "e^2*z11^-1*z01^-2*z10^-3*cxw*x0"
    assert product.evaluate() == tuple(a * b for a, b in zip(u.evaluate(), v.evaluate()))
