"""Acceptance gate: the headline computations, checked exactly.

Each test prints one PASS/FAIL line (visible under pytest -s / -v) and
asserts with zero tolerance; everything here is integer-exact.
"""

import functools
import random

import pytest

from quadrics.burnside import (
    ONE_MINUS_KAPPA, BurnsideScalar, UnsolvableError, burnside_solve,
)
from quadrics.cli import Expression, parse
from quadrics.engine import (
    RingElement, annihilator_check, multiply, normal_form,
    solve_with_coefficients, tau_transfer, verify_presentation,
)
from quadrics.enumerative import euler_sym3
from quadrics.nonequiv import euler_fixed_sym3, euler_sym3_rank2
from quadrics.presentation import load_presentation, mono_mul
from quadrics.scalars import PointScalar

B = BurnsideScalar

VERIFIED_SPACES = (
    [("Q_BD", q) for q in range(5)]
    + [("Q_DD", q) for q in range(2, 5)]
    + [("Q22", None), ("Gr222", None)]
)


def criterion(n, label):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"FAIL {n:02d}  {label}")
                raise
            print(f"PASS {n:02d}  {label}")
        return wrapper
    return deco


def coefficients(space, grading, rho, fix, ansatz):
    el, records, ambiguous = solve_with_coefficients(
        space, grading, rho, fix, ansatz=ansatz)
    assert not ambiguous
    return el, [c for _, _, c in records]


@criterion(1, "burnside solve and parity of solvability")
def test_01_burnside_solve():
    assert burnside_solve(27, 5) == B(5, 11)
    assert burnside_solve(1, -1) == ONE_MINUS_KAPPA == B(-1, 1)
    rng = random.Random(271)
    for _ in range(1000):
        r = rng.randint(-200, 200)
        f = rng.randint(-200, 200)
        if (r - f) % 2 == 0:
            s = burnside_solve(r, f)
            assert (s.rho, s.fix) == (r, f)
        else:
            with pytest.raises(UnsolvableError):
                burnside_solve(r, f)


@criterion(2, "complementary section on the section-pair quadrics")
def test_02_section_pair_lemma():
    for q in range(1, 5):
        sp = load_presentation("Q_BD", q)
        xp = sp.mono(xp=1)
        el, coeffs = coefficients(sp, sp.mono_grading(xp), *sp.eval_mono(xp),
                                  ansatz=sp.lemma_ansatz)
        assert coeffs == [1, 1, 0], q                  # (alpha, beta, gamma)
        expected = RingElement.from_terms(sp, (
            (PointScalar.integer(1), sp.mono(x=1)),
            (PointScalar.e_power(2), sp.mono(divq=1)),
        ))
        assert el == expected == normal_form(RingElement.from_mono(sp, xp)), q
    sp = load_presentation("Q_BD", 0)
    xp = sp.mono(xp=1)
    el, coeffs = coefficients(sp, sp.mono_grading(xp), *sp.eval_mono(xp),
                              ansatz=sp.lemma_ansatz)
    assert coeffs == [B(-1, 1), 1]                     # (1-kappa, 1)
    assert el == RingElement.from_terms(sp, (
        (PointScalar.from_burnside(B(-1, 1)), sp.mono(x=1)),
        (PointScalar.e_power(2), sp.mono()),
    ))


@criterion(3, "complementary section on the diagonal quadrics")
def test_03_diagonal_lemma():
    for q in range(2, 5):
        sp = load_presentation("Q_DD", q)
        xp = sp.mono(xp=1)
        el, coeffs = coefficients(sp, sp.mono_grading(xp), *sp.eval_mono(xp),
                                  ansatz=sp.lemma_ansatz)
        if q % 2 == 0:
            # xp = (1-g)*x + z1*divq, underlying c^q - y
            assert coeffs == [B(1, -1), B(1, 0), 0, 0], q  # gamma = delta = 0
            expected = RingElement.from_terms(sp, (
                (PointScalar.from_burnside(B(1, -1)), sp.mono(x=1)),
                (PointScalar.integer(1), sp.mono(z1=1, divq=1)),
            ))
        else:
            # xp = (g-1)*x + e^2*cxw^(q-1), underlying y: x and xp are
            # disjoint, so they share a ruling of Q^{2q} for odd q
            assert coeffs == [B(-1, 1), B(0, 0), 1, 0], q  # beta = delta = 0
            expected = RingElement.from_terms(sp, (
                (PointScalar.from_burnside(B(-1, 1)), sp.mono(x=1)),
                (PointScalar.e_power(2), sp.mono(cxw=q - 1)),
            ))
        assert el == expected, q


@criterion(4, "point pushforwards on the four-point quadric")
def test_04_four_point_pushforwards():
    sp = load_presentation("Q22")
    expected = {
        "i0": [B(-1, 1), B(0, 0), 1, 0],
        "i1": [B(-1, 0), B(-1, 1), 1, 1],
        "i2": [B(1, -1), B(1, 0), 0, -1],              # delta = -1
        "i3": [B(1, 0), B(0, 0), 0, 0],
    }
    for name, coeffs_want in expected.items():
        declared = RingElement.from_terms(sp, sp.pushforwards[name])
        rho, fix = sp.pushforward_targets[name]
        el, coeffs = coefficients(sp, declared.grading, rho, fix,
                                  ansatz=sp.pushforward_ansatz)
        assert coeffs == coeffs_want, name
        assert normal_form(el) == normal_form(declared), name


@criterion(5, "presentation verification and the annihilator law")
def test_05_verify_presentations():
    for name, q in VERIFIED_SPACES:
        sp = load_presentation(name, q)
        report = verify_presentation(sp)
        assert report["ok"], (sp.name, report["failures"])
        # the two section families kill each other in every quadric
        if "xp" in sp.letters:
            x = RingElement.from_mono(sp, sp.mono(x=1))
            xp = RingElement.from_mono(sp, sp.mono(xp=1))
            assert multiply(x, xp).is_zero(), sp.name
    # where a vanishing pair is declared, membership in the section ideal
    # agrees with being killed by the partner, slot by slot
    rng = random.Random(55)
    for name, q in VERIFIED_SPACES:
        sp = load_presentation(name, q)
        if sp.annihilator_pair is None:
            with pytest.raises(ValueError):
                annihilator_check(sp, RingElement.one(sp))
            continue
        for _ in range(3):
            if sp.family == "Q22":
                key = (rng.randint(-2, 2), 0, rng.randint(-2, 2))
            else:
                key = (rng.randint(-2, 2), rng.randint(-2, 2))
            for m in sp.coset_basis(key):
                killed, member = annihilator_check(
                    sp, RingElement.from_mono(sp, m))
                assert killed == member, (sp.name, m)


@criterion(6, "the 27 lines, even pencil")
def test_06_lines_even():
    r = euler_sym3("even")
    assert r.alpha == B(5, 11)
    assert r.beta == 1
    assert (r.free_pairs, r.invariant_lines) == (10, 6)
    assert r.fixed_line_component == "11"
    assert r.total == 27
    # recompute both targets independently and compare with the element
    gr = load_presentation("Gr222")
    rho, fix = r.element.evaluate()
    assert rho == euler_sym3_rank2(gr.underlying)
    assert rho.coefficient((2, 1)) == 27
    assert str(fix) == "(0, 1, 6*x1*x2)"
    assert fix.parts[2] == euler_fixed_sym3(gr.fixed_rings[2], "even")


@criterion(7, "the 27 lines, odd pencil")
def test_07_lines_odd():
    even = euler_sym3("even")
    odd = euler_sym3("odd")
    assert (odd.free_pairs, odd.invariant_lines) == (10, 6)
    assert odd.fixed_line_component == "00"
    # the odd answer is the even answer with the two point-components swapped
    assert odd.alpha == even.alpha
    assert odd.beta == even.beta
    assert odd.total == even.total == 27
    swap = {"00": "11", "11": "00"}
    assert swap[odd.fixed_line_component] == even.fixed_line_component
    assert str(odd.element.evaluate()[1]) == "(1, 0, 6*x1*x2)"


@criterion(8, "unit identities")
def test_08_units():
    assert ONE_MINUS_KAPPA * ONE_MINUS_KAPPA == B(1, 0)
    bd0 = load_presentation("Q_BD", 0)
    u = RingElement.from_terms(bd0, (
        (PointScalar.integer(1), bd0.mono()),
        (-PointScalar.kappa_negative(1), bd0.mono(x=1)),
    ))
    assert multiply(u, u) == RingElement.one(bd0)
    bu1 = load_presentation("BU1")
    eps = RingElement.from_terms(  # e^-2*kappa*z0*cw
        bu1, ((PointScalar.kappa_negative(1), bu1.mono(z0=1, cw=1)),))
    one_minus_eps = RingElement.one(bu1) - eps
    (uname, lhs, rhs), = bu1.units
    assert RingElement.from_terms(bu1, lhs) == one_minus_eps
    inverse = RingElement.from_terms(bu1, rhs)
    assert multiply(one_minus_eps, inverse) == RingElement.one(bu1)


@criterion(9, "ruling bundle classes on the four-point quadric")
def test_09_ruling_classes():
    sp = load_presentation("Q22")
    ids = {k: RingElement.from_terms(sp, v)
           for k, v in sp.identifications.items()}
    assert multiply(ids["cw1"], ids["cxw1"]).is_zero()
    assert multiply(ids["cw2"], ids["cxw2"]).is_zero()
    lhs = multiply(ids["cw_bundle"], ids["cxw_bundle"])
    twist = RingElement.from_mono(sp, sp.mono(z00=2, z01=1, z10=1),
                                  PointScalar.tau_power(1))
    rhs = multiply(twist, multiply(ids["cw1"], ids["cw2"]))
    assert normal_form(lhs) == normal_form(rhs)
    assert lhs.evaluate() == rhs.evaluate()


@criterion(10, "the smallest odd quadric against the projective line")
def test_10_cross_identification():
    bd0 = load_presentation("Q_BD", 0)
    x11 = load_presentation("X1q", 1)
    cw = RingElement.from_mono(bd0, bd0.mono(cw=1))
    zx = RingElement.from_mono(bd0, bd0.mono(z1=1, x=1))
    assert normal_form(cw) == tau_transfer(zx)
    # the five dictionary rows agree under evaluation (the third fixed
    # component of the quadric is empty; y maps to c downstairs)
    rows = [
        (bd0.mono(z00=1), x11.mono(z0=1), 1),
        (bd0.mono(z11=1), x11.mono(z1=1), 1),
        (bd0.mono(x=1), x11.mono(z0=1, cw=1), 1),
        (bd0.mono(xp=1), x11.mono(z1=1, cxw=1), 1),
        (bd0.mono(cw=1), x11.mono(z0=1, cw=1), PointScalar.tau_power(1)),
    ]
    for left, right, scale in rows:
        scalar = PointScalar.integer(1) if scale == 1 else scale
        ra, fa = RingElement.from_mono(bd0, left).evaluate()
        rb, fb = RingElement.from_mono(x11, right, scalar).evaluate()
        assert str(ra).replace("y", "c") == str(rb), (left, right)
        assert [str(p) for p in fa.parts[:2]] == [str(p) for p in fb.parts]
        assert not fa.parts[2]


@criterion(11, "property suite: evaluation, solving, parsing")
def test_11_property_suite():
    spaces = (
        [("BU1", None)]
        + [("X1q", q) for q in range(5)]
        + [("Q_BD", q) for q in range(5)]
        + [("Q_DD", q) for q in range(2, 5)]
        + [("Q22", None), ("Gr222", None)]
    )
    rng = random.Random(2027)

    # evaluation is a ring map: 500 random pairs of admissible monomials
    # per space (an inadmissible monomial is not a class; it is redrawn)
    for name, q in spaces:
        sp = load_presentation(name, q)
        zetas = [n for n in sp.letter_order if n.startswith("z")]
        others = [n for n in sp.letter_order if not n.startswith("z")]
        for _ in range(500):
            def pick():
                while True:
                    exps = {n: rng.randint(-2, 2) for n in rng.sample(
                        zetas, min(2, len(zetas)))}
                    exps.update({n: rng.randint(0, 2) for n in rng.sample(
                        others, min(1, len(others)))})
                    mono = sp.mono(exps)
                    if sp.is_admissible(mono):
                        return mono
            a, b = pick(), pick()
            ra, fa = sp.eval_mono(a)
            rb, fb = sp.eval_mono(b)
            rc, fc = sp.eval_mono(mono_mul(a, b, sp.letter_order))
            assert rc == ra * rb and fc == fa * fb, (sp.name, a, b)

    # solve after evaluate is the identity on every tabulated basis slot
    checked = 0
    for name, q in spaces:
        sp = load_presentation(name, q)
        if sp.family == "BU1":
            continue
        if sp.family == "X1q":
            keys = [(k,) for k in range(max(1 - sp.q, -3), 4)]
        elif sp.family == "Q22":
            keys = [(m, 0, n) for m in range(-3, 4) for n in range(-3, 4)]
        else:
            keys = [(m, n) for m in range(-3, 4) for n in range(-3, 4)]
        for key in keys:
            for m in sp.coset_basis(key):
                rho, fix = sp.eval_mono(m)
                el, _, _ = solve_with_coefficients(
                    sp, sp.mono_grading(m), rho, fix)
                assert el == RingElement.from_mono(sp, m), (sp.name, m)
                checked += 1
    assert checked > 3000

    # printing is loyal to the parser on 1,000 generated expressions
    scalars = [
        PointScalar.integer(7), PointScalar.integer(-2),
        PointScalar.from_burnside(B(5, 11)), PointScalar.from_burnside(B(0, 1)),
        PointScalar.from_burnside(B(1, -1)), PointScalar.e_power(2),
        PointScalar.e_power(3), PointScalar.xi_power(1),
        PointScalar.xi_power(3), PointScalar.tau_power(1),
        PointScalar.tau_power(2), PointScalar.kappa_negative(1),
        PointScalar.kappa_negative(2), -PointScalar.e_power(1),
        PointScalar(B(1, 0), e=1, xi=1),
    ]
    names = ("z00", "z11", "z01", "z10", "z0", "z1", "cw", "cxw",
             "cl", "cxl", "x", "xp", "divq")
    for _ in range(1000):
        terms = []
        for _ in range(rng.randint(1, 4)):
            picked = rng.sample(names, rng.randint(0, 3))
            mono = tuple(
                (n, rng.choice([1, 2, 3, -1, -2]) if n.startswith("z")
                 else rng.randint(1, 3))
                for n in sorted(picked, key=names.index))
            terms.append((rng.choice(scalars), mono))
        expr = Expression(terms)
        assert parse(str(expr)) == expr, str(expr)
