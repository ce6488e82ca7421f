"""Graded elements: normal forms, products, basis solves, printing."""

import itertools
import random
import re
from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings, strategies as st
from sympy.matrices.normalforms import smith_normal_decomp, smith_normal_form

from quadrics import engine, parse, presentation
from quadrics.burnside import BurnsideScalar, UnsolvableError
from quadrics.cli import ZETA_NAMES
from quadrics.engine import (
    AmbiguousSolveError, RingElement, annihilator_check, multiply, normal_form,
    scalar_multiple, solve_with_coefficients, tau_transfer, verify_presentation,
)
from quadrics.grading import GradingElement, GradingGroup
from quadrics.presentation import (
    FixedTuple, NoFiniteTableError, SpacePresentation,
    load_presentation, mono_mul, mono_str,
)
from quadrics.nonequiv import NonequivClass, TruncatedRing
from quadrics.scalars import ONE, FragmentError, PointScalar, scalar_dressing

B = BurnsideScalar
BD2 = load_presentation("Q_BD", 2)

# every space up to q = 16 that has coset tables (BU1 has none), written out
TABLED = (
    [("Q22", None), ("Gr222", None)]
    + [("X1q", q) for q in range(17)]
    + [("Q_BD", q) for q in range(17)]
    + [("Q_DD", q) for q in range(2, 17)]
)
# the spaces the reproduce benchmark verifies
REPRODUCE_GRID = (
    [("BU1", None), ("Q22", None), ("Gr222", None)]
    + [("X1q", q) for q in range(0, 17, 2)]
    + [("Q_BD", q) for q in range(17)]
    + [("Q_DD", q) for q in range(2, 17)]
)
# the RO(C2) shifts (one, sigma) the solve benchmark dresses a slot by
SOLVE_SHIFTS = ((0, 0), (0, 1), (0, 2), (0, 3), (0, -2), (0, -4), (-2, 2), (2, -2))


def elt(space, scalar=None, **exps):
    scalar = PointScalar.integer(1) if scalar is None else scalar
    return RingElement.from_mono(space, space.mono(exps), scalar)


def test_normal_form_of_complementary_section():
    assert str(normal_form(elt(BD2, xp=1))) == "e^2*divq + x"
    # idempotent
    nf = normal_form(elt(BD2, xp=1))
    assert normal_form(nf) == nf


def test_section_squares():
    assert str(multiply(elt(BD2, x=1), elt(BD2, x=1))) == "-e^2*divq*x"
    assert multiply(elt(BD2, x=1), elt(BD2, xp=1)).is_zero()
    dd = load_presentation("Q_DD", 2)
    assert multiply(elt(dd, x=1), elt(dd, xp=1)).is_zero()


def test_disjoint_sections_kill_each_other_in_every_even_quadric():
    for name, q in [("Q_DD", q) for q in range(2, 17)] + [("Gr222", None)]:
        sp = load_presentation(name, q)
        assert multiply(elt(sp, x=1), elt(sp, xp=1)).is_zero(), sp.name


def test_every_space_of_the_reproduce_grid_verifies():
    for name, q in REPRODUCE_GRID:
        report = verify_presentation(load_presentation(name, q))
        assert report["ok"], (report["space"], report["failures"])


def test_every_declared_relation_and_pushforward_lies_in_a_decided_degree():
    # so verify compares their evaluation pairs and never needs a normal form
    declared = 0
    for name, q in REPRODUCE_GRID + [(n, q) for n in ("Q_BD", "Q_DD") for q in (1023, 1024)]:
        sp = load_presentation(name, q)
        sides = [rel.lhs for rel in sp.relations] + list(sp.pushforwards.values())
        for terms in sides:
            grading = RingElement.from_terms(sp, terms).grading
            assert engine._evaluation_decides(sp, grading), (sp.name, str(grading))
        declared += len(sides)
    assert declared == 69  # 62 on the reproduce grid


def test_verify_makes_no_normal_form(monkeypatch):
    calls = []
    monkeypatch.setattr(engine, "normal_form", lambda u: calls.append(u) or normal_form(u))
    for name, q in REPRODUCE_GRID:
        verify_presentation(load_presentation(name, q))
    assert calls == []


def test_section_ideal_membership_is_decided_by_span():
    # the table writes this class on an xp slot, yet it equals
    # z00^-2*z11^-4*cw*x: the e^2*divq part of xp dies via cw*divq -> tau*...
    bd3 = load_presentation("Q_BD", 3)
    z = elt(bd3, z00=-2, z11=-4, cw=1, xp=1)
    assert all("x" not in dict(m) for m in normal_form(z).terms)
    assert normal_form(z) == normal_form(elt(bd3, z00=-2, z11=-4, cw=1, x=1))
    assert annihilator_check(bd3, z) == (True, True)
    # a class outside the ideal stays outside
    assert annihilator_check(bd3, elt(bd3, cw=1)) == (False, False)


def test_xp_kills_two_q_bd1_classes_that_are_no_x_multiples():
    # not a section family too small: x times the shifted coset's whole
    # table cannot reach their evaluation pair either
    bd1 = load_presentation("Q_BD", 1)
    x = bd1.mono(x=1)
    for z in (elt(bd1, z00=1, z11=-1, xp=1), elt(bd1, z00=1, xp=1)):
        assert annihilator_check(bd1, z) == (True, False)
        monos = tuple(mono_mul(x, s, bd1.letter_order)
                      for s in bd1.coset_basis(z.grading - bd1.mono_grading(x)))
        gradings = [bd1.mono_grading(m) for m in monos]
        degrees = tuple(d for g in gradings for d in (g.one, g.sigma))
        family = engine._dressed_slots(z.grading, monos, degrees)
        with pytest.raises(UnsolvableError, match="1 is not a multiple of 2"):
            solve_with_coefficients(bd1, z.grading, *z.evaluate(), ansatz=family)


def test_divided_class_square_closes_in_the_basis():
    sq = multiply(elt(BD2, divq=1), elt(BD2, divq=1))
    assert str(sq) == "-e^-2*kappa*divq*x + tau2*z00*z11*cxw*x + e^4*z1^-2*divq"
    assert normal_form(sq) == sq


def test_divided_square_is_the_first_rule_and_matches_its_solve():
    spaces = ([("Q_BD", q) for q in range(1, 17)]
              + [("Q_DD", q) for q in range(2, 17)] + [("Gr222", None)])
    for name, q in spaces:
        sp = load_presentation(name, q)
        rule = sp.rules[0]
        assert rule.name == "divided-square" and rule.lhs == sp.mono(divq=2)
        grading = sp.mono_grading(rule.lhs)
        declared = RingElement.from_terms(sp, rule.rhs, grading=grading)
        solved = solve_with_coefficients(sp, grading, *sp.eval_mono(rule.lhs))[0]
        assert declared == solved, sp.name


def test_declared_relations_hold_under_multiplication():
    for name, q in [("Q_BD", 0), ("Q_BD", 3), ("Q_DD", 2), ("Q22", None),
                    ("Gr222", None), ("BU1", None), ("X1q", 2)]:
        sp = load_presentation(name, q)
        sides = [(rel.name, rel.lhs, rel.rhs) for rel in sp.relations]
        sides += [(rule.name, ((PointScalar.integer(1), rule.lhs),), rule.rhs)
                  for rule in sp.rules]
        for label, lhs_terms, rhs_terms in sides:
            lhs = RingElement.from_terms(sp, lhs_terms)
            # a truncation relation may have an empty right-hand side
            rhs = RingElement.from_terms(sp, rhs_terms, grading=lhs.grading)
            assert normal_form(lhs) == normal_form(rhs), (sp.name, label)


def test_declared_units_normalize_to_one():
    for name, q in [("BU1", None), ("Q_BD", 0)]:
        sp = load_presentation(name, q)
        assert sp.units, sp.name
        for uname, u, v in sp.units:
            lhs = RingElement.from_terms(sp, u)
            rhs = RingElement.from_terms(sp, v)
            assert multiply(lhs, rhs) == RingElement.one(sp), (sp.name, uname)


def test_from_terms_rejects_mixed_gradings():
    one = PointScalar.integer(1)
    with pytest.raises(ValueError):
        RingElement.from_terms(BD2, ((one, BD2.mono(x=1)),
                                     (one, BD2.mono(z00=1))))


def test_outside_terms_and_ansatze_are_checked_where_they_come_in():
    m = BD2.mono(z00=-1)  # no letter licenses z00^-1
    with pytest.raises(ValueError, match="not admissible") as err:
        RingElement.from_mono(BD2, m)
    for part in ("z00^-1", str(BD2.mono_grading(m)), BD2.name):
        assert part in str(err.value)
    # an ansatz candidate off the target degree is refused before any solve
    x = BD2.mono(x=1)
    degree = BD2.mono_grading(x)
    wrong = degree + BD2.group.element(sigma=1)
    with pytest.raises(ValueError, match=re.escape(f"term x has degree {degree}, not {wrong}")):
        solve_with_coefficients(BD2, wrong, *BD2.eval_mono(x), ansatz=[(ONE, x)])


def test_zero_element_needs_an_explicit_grading():
    with pytest.raises(ValueError):
        RingElement.from_terms(BD2, ())
    z = RingElement.from_terms(BD2, (), grading=BD2.group.element(sigma=2))
    assert z.is_zero()
    assert multiply(z, elt(BD2, x=1)).is_zero()


def test_products_outside_the_fragment_fail_loudly():
    # odd euler power against a divided kappa class: the class leaves the
    # fragment, and the solve of the factors' evaluations cannot place it
    a = elt(BD2, PointScalar.e_power(1), z00=1, z11=1, cw=1)
    b = elt(BD2, PointScalar.kappa_negative(1), x=1)
    grading = a.grading + b.grading
    assert engine._evaluation_decides(BD2, grading)
    with pytest.raises(UnsolvableError, match=re.escape(f"in degree {grading} of Q_BD(q=2)")):
        multiply(a, b)


def test_a_decided_product_forms_no_termwise_scalar_product(monkeypatch):
    u = elt(BD2, x=1)
    assert engine._evaluation_decides(BD2, u.grading + u.grading)
    products = []
    mul = PointScalar.__mul__
    monkeypatch.setattr(PointScalar, "__mul__", lambda s, t: products.append(t) or mul(s, t))
    assert str(multiply(u, u)) == "-e^2*divq*x"
    assert products == []


def test_an_ambiguous_product_outside_the_fragment_is_not_guessed(monkeypatch):
    # the termwise scalar e * e^-2 kappa leaves the fragment, and the product
    # is solved from the factors' evaluations; with every Q22 slot listed
    # twice the pair no longer separates the candidates, and the solve raises
    q22 = presentation._build_q22()
    u = elt(q22, PointScalar.e_power(1), z00=5, z11=1, cw=1)
    v = elt(q22, PointScalar.kappa_negative(1), z00=5, z11=1, z10=1, cw=1)
    product = multiply(u, v)
    rho, fix = (a * b for a, b in zip(u.evaluate(), v.evaluate()))
    assert product.evaluate() == (rho, fix)
    coset_table = SpacePresentation.coset_table

    def doubled(self, key):
        monos, degrees = coset_table(self, key)
        return monos + monos, degrees + degrees

    monkeypatch.setattr(SpacePresentation, "coset_table", doubled)
    with pytest.raises(AmbiguousSolveError, match=re.escape(
            f"underdetermined solve in degree {product.grading} of Q22")) as info:
        multiply(u, v)
    assert isinstance(info.value.__context__, FragmentError)


def test_a_scalar_multiple_outside_the_fragment_is_solved_from_evaluation():
    # e * e^-2 kappa leaves the fragment; the scaled evaluation pair places
    # the class in the table
    q22 = load_presentation("Q22")
    u = elt(q22, PointScalar.e_power(1), z00=2, z01=1, x=1)
    kappa = PointScalar.kappa_negative(1)
    product = scalar_multiple(u, kappa)
    assert str(product) == "2*e*z00^2*z01"
    rho, fix = u.evaluate()
    assert product.evaluate() == (kappa.rho_multiplier() * rho,
                                  fix * kappa.fix_multiplier())


def test_a_two_torsion_term_is_not_dropped_by_a_re_solve():
    # the rewritten form is off the table (z0*cw^2 is no slot), and its
    # e^2*xi*cw term evaluates to 0, so a re-solve from evaluation would
    # give xi^2*z0^-1*cw*cxw and lose it
    x1q = load_presentation("X1q", 16)
    u = elt(x1q, z0=1, z1=2, cw=1, cxw=1)
    assert x1q.mono(cw=1) in x1q.coset_basis(u.grading)
    assert x1q.mono(z0=1, cw=2) not in x1q.coset_basis(u.grading)
    nf = normal_form(u)
    assert str(nf) == "e^2*xi*cw + xi*z0*cw^2"
    assert nf.evaluate() == u.evaluate()


def test_step_bound_trips_loudly(monkeypatch):
    # a torsion-capable degree, so the product is rewritten
    monkeypatch.setattr(engine, "DEFAULT_STEP_BOUND", 1)
    with pytest.raises(RuntimeError, match="STEP_BOUND=1 "):
        multiply(elt(BD2, z00=1, z1=1, xp=1), elt(BD2, z11=1, divq=1, xp=1))


def _torsion_free_table(space, grading):
    """Whether `grading` has a finite table none of whose slots has a gap
    (a, b) that is the degree of some e^k*xi^j (a < 0, a even, a + b > 0)."""
    try:
        slots = space.coset_basis(grading)
    except NoFiniteTableError:
        return False
    for slot in slots:
        a, b = (grading - space.mono_grading(slot)).to_ro_c2()
        if a < 0 and a % 2 == 0 and a + b > 0:
            return False
    return True


def test_products_in_torsion_free_degrees_are_the_solve_of_their_evaluations():
    # evaluation decides the class where no slot can carry a 2-torsion
    # class, so such a product ends even where the rules would cycle
    rng = random.Random(23)
    spaces = [load_presentation(name, q) for name, q in (
        ("X1q", 16), ("Q_BD", 2), ("Q_BD", 16), ("Q_DD", 3), ("Q_DD", 16),
        ("Q22", None), ("Gr222", None))]

    def factor(space):
        letters = [n for n in space.letter_order if n not in ZETA_NAMES]
        while True:
            exps = {}
            for name in rng.choices(letters, k=rng.randint(1, 2)):
                exps[name] = exps.get(name, 0) + 1
            for name in space.letter_order:
                if name in ZETA_NAMES:
                    exps[name] = rng.randint(-1, 1)
            mono = space.mono(exps)
            if space.is_admissible(mono):
                return RingElement.from_mono(space, mono)

    dd3 = spaces[3]
    pairs = [(parse("(-1)*e^3*z00^-2*cw*cxw^2*x").to_element(dd3),
              parse("(-1-3*g)*z00*z11^-1*cw*xp").to_element(dd3))]
    pairs += [(factor(sp), factor(sp)) for sp in (rng.choice(spaces) for _ in range(1000))]
    checked = 0
    for u, v in pairs:
        grading = u.grading + v.grading
        if not _torsion_free_table(u.space, grading):
            continue
        rho, fix = (a * b for a, b in zip(u.evaluate(), v.evaluate()))
        assert multiply(u, v) == solve_with_coefficients(u.space, grading, rho, fix)[0], (u, v)
        checked += 1
    assert checked > 300
    assert multiply(*pairs[0]).is_zero()  # a step-bound trip when it was rewritten
    # a torsion-capable degree is still rewritten, and keeps its torsion terms
    u, v = elt(BD2, z00=1, z1=1, xp=1), elt(BD2, z11=1, divq=1, xp=1)
    assert not _torsion_free_table(BD2, u.grading + v.grading)
    assert str(multiply(u, v)) == "e^6*xi*z1^-2*divq*x + e^8*xi*z1^-2*divq^2"


def test_evaluation_refuses_an_inadmissible_monomial():
    gr = load_presentation("Gr222")
    m = gr.mono(z00=1, z11=1, z1=-1, cl=1, cxl=1, x=1)  # no letter licenses z1^-1
    with pytest.raises(ValueError, match="not admissible") as err:
        gr.eval_mono(m)
    for part in (mono_str(m), str(gr.mono_grading(m)), gr.name):
        assert part in str(err.value)


@pytest.mark.parametrize("name, q, exps, answer", [
    ("Q_BD", 2, {"z1": -1, "divq": 2, "x": 1}, "-e^4*z1^-3*divq*x"),
    ("Gr222", None, {"z00": 1, "z11": 1, "z1": -1, "cl": 1, "divq": 2}, "0"),
])
def test_normal_forms_that_looped_through_inadmissible_monomials_end(name, q, exps, answer):
    # divided-square would strip divq and leave z1^-k unlicensed, so it
    # does not fire there, and the rules that can fire terminate
    sp = load_presentation(name, q)
    u = elt(sp, **exps)
    nf = normal_form(u)
    assert str(nf) == answer
    assert nf.evaluate() == u.evaluate()
    assert normal_form(nf) == nf


def test_every_rule_application_produces_admissible_monomials(monkeypatch):
    produced = []

    def spy(space, mono, fire=engine._fire):
        assert space.is_admissible(mono), mono_str(mono)
        results = fire(space, mono)
        produced.extend((space, m) for _, m in results or ())
        return results

    monkeypatch.setattr(engine, "_fire", spy)
    monkeypatch.setattr(engine, "DEFAULT_STEP_BOUND", 500)  # a trip still fires rules
    rng = random.Random(12)
    for name, q in (("Q_BD", 2), ("Q_DD", 3), ("Q22", None), ("Gr222", None)):
        sp = load_presentation(name, q)
        letters = [n for n in sp.letter_order if not n.startswith("z")]
        zetas = [n for n in sp.letter_order if n.startswith("z")]

        def factor():
            while True:
                exps = {n: rng.randint(-1, 1) for n in zetas}
                for n in rng.choices(letters, k=rng.randint(1, 2)):
                    exps[n] = exps.get(n, 0) + 1
                if sp.is_admissible(sp.mono(exps)):
                    return RingElement.from_mono(sp, sp.mono(exps))

        for _ in range(24):
            try:
                multiply(factor(), factor())
            except (RuntimeError, UnsolvableError):
                pass  # a step-bound trip or an unsolvable re-solve
    assert {sp.name for sp, _ in produced} == {"Q_BD(q=2)", "Q_DD(q=3)", "Q22", "Gr222"}
    bad = [(sp.name, mono_str(m)) for sp, m in produced if not sp.is_admissible(m)]
    assert not bad, bad[:4]


_TRUST_SPACES = (("Q_BD", 2), ("Q_DD", 3), ("Gr222", None), ("Q22", None), ("X1q", 3))


def _admissible_factor(sp, rng):
    """A monomial element, drawn as the rule-application test draws factors."""
    letters = [n for n in sp.letter_order if not n.startswith("z")]
    zetas = [n for n in sp.letter_order if n.startswith("z")]
    while True:
        exps = {n: rng.randint(-1, 1) for n in zetas}
        for n in rng.choices(letters, k=rng.randint(1, 2)):
            exps[n] = exps.get(n, 0) + 1
        if sp.is_admissible(sp.mono(exps)):
            return RingElement.from_mono(sp, sp.mono(exps))


def _drawn_slot_element(sp, rng):
    """A seeded combination of a sampled coset's dressed slots, built at the door."""
    table = sp.coset_basis(rng.choice(engine._sample_keys(sp)))
    grading = sp.mono_grading(rng.choice(table)) + sp.group.element(*rng.choice(SOLVE_SHIFTS))
    terms = []
    for template, mono in engine._dressed_slots(grading, *sp.coset_table(grading)):
        b = rng.randint(-3, 3) if template.shape() == (0, 0, 0, 0) else 0
        terms.append((template.scale(B(rng.randint(-3, 3), b)), mono))
    return RingElement.from_terms(sp, terms, grading=grading)


def test_the_engine_builds_only_what_the_door_would_accept():
    # the plain constructor trusts products, solves and sums: each result
    # passes from_terms unchanged and evaluates onto basis keys only
    rng = random.Random(17)
    results = []
    for name, q in _TRUST_SPACES:
        sp = load_presentation(name, q)
        for _ in range(16):
            try:
                results.append(multiply(_admissible_factor(sp, rng), _admissible_factor(sp, rng)))
            except (RuntimeError, UnsolvableError):
                pass  # a step-bound trip or an unsolvable re-solve
            drawn = _drawn_slot_element(sp, rng)
            solved = solve_with_coefficients(sp, drawn.grading, *drawn.evaluate())[0]
            results += [solved, solved + drawn, -solved]
    assert {r.space.name for r in results if r.terms} == {
        "Q_BD(q=2)", "Q_DD(q=3)", "Gr222", "Q22", "X1q(q=3)"}
    for r in results:
        assert RingElement.from_terms(r.space, r.sorted_terms(), grading=r.grading) == r
        rho, fix = r.evaluate()
        for cls in (rho, *fix.parts):
            assert set(cls.coeffs) <= set(cls.ring.basis_keys()), (r.space.name, str(r))


def test_integer_and_burnside_scalings_are_products():
    # x^2 rewrites to -e^2*divq*x, and g*e = 0 kills the g-multiple
    x2 = elt(BD2, x=2)
    assert str(x2 * 3) == str(3 * x2) == "-3*e^2*divq*x"
    assert (x2 * B(0, 1)).is_zero()
    rng = random.Random(23)
    for name, q in _TRUST_SPACES:
        sp = load_presentation(name, q)
        for _ in range(8):
            u, a, b = _admissible_factor(sp, rng), rng.randint(-3, 3), rng.randint(-3, 3)
            try:
                expected = scalar_multiple(u, PointScalar.from_burnside(B(a, b)))
            except (RuntimeError, UnsolvableError):
                continue  # a step-bound trip or an unsolvable re-solve
            assert u * B(a, b) == expected, (sp.name, str(u), a, b)
            assert u * a == a * u == scalar_multiple(u, PointScalar.integer(a))


def test_solve_recovers_the_complementary_section():
    g = BD2.mono_grading(BD2.mono(xp=1))
    rho, fix = BD2.eval_mono(BD2.mono(xp=1))
    el, records, ambiguous = solve_with_coefficients(BD2, g, rho, fix)
    assert str(el) == "e^2*divq + x"
    assert not ambiguous
    coeffs = {mono_str(m): c for _, m, c in records}
    assert coeffs == {"divq": 1, "x": 1, "z00*z11*cw*x": 0}
    assert solve_with_coefficients(BD2, g, rho, fix)[0] == el


def test_solve_round_trips_on_sampled_cosets():
    rng = random.Random(5)
    for name, q in [("Q_BD", 1), ("Q_DD", 2), ("Gr222", None)]:
        sp = load_presentation(name, q)
        for _ in range(4):
            key = (rng.randint(-2, 2), rng.randint(-2, 2))
            for m in sp.coset_basis(key):
                rho, fix = sp.eval_mono(m)
                el = solve_with_coefficients(sp, sp.mono_grading(m), rho, fix)[0]
                assert el == RingElement.from_mono(sp, m), (sp.name, mono_str(m))


def test_the_round_trip_kernel_test_agrees_with_the_solve():
    # every sampled table spans on both sides, so the candidates at each
    # slot's degree have an empty kernel and the solve gives the slot back
    for name, q in TABLED:
        sp = load_presentation(name, q)
        for key in engine._sample_keys(sp):
            assert engine._singular_sides(sp, key) == [], (sp.name, key)
            for slot in sp.coset_basis(key):
                grading = sp.mono_grading(slot)
                unknowns, table = engine._equations(
                    sp, engine._dressed_slots(grading, *sp.coset_table(grading)))
                where = (sp.name, mono_str(slot))
                assert engine._kernel(list(table.values()), len(unknowns))[0] == [], where
                solved, _, ambiguous = solve_with_coefficients(
                    sp, grading, *sp.eval_mono(slot))
                assert solved.terms == {slot: ONE} and not ambiguous, where


def test_the_template_memo_keeps_one_template_per_on_line_gap(monkeypatch):
    for a in range(-40, 41):
        for b in range(-40, 41):
            if a and a + b:
                continue
            dressed, template = scalar_dressing((a, b)), engine._template(a, b)
            assert template == (dressed and dressed[0]), (a, b)
            assert engine._template(a, b) is template, (a, b)
    # a whole table's _lines fills the memo with on-line gaps only
    sp = load_presentation("Q_BD", 5)
    grading = sp.mono_grading(sp.coset_basis((1, 0))[0]) + sp.group.element(0, 1)
    table = sp.coset_table(grading)
    asked = []
    monkeypatch.setattr(engine, "scalar_dressing",
                        lambda gap: asked.append(gap) or scalar_dressing(gap))
    engine._template.cache_clear()
    lines = engine._lines(grading, *table)
    gaps = {(grading - sp.mono_grading(m)).to_ro_c2() for m in table[0]}
    assert any(a and a + b for a, b in gaps)  # the table has off-line slots
    assert set(asked) == {(a, b) for a, b in gaps if not a or not a + b}
    assert engine._template.cache_info().currsize == len(asked)
    assert all(t is engine._template(a, b) for _, a, b, t in lines)


def test_a_warm_table_solve_constructs_no_point_scalar(monkeypatch):
    # the mechanism of the warm solve, counted rather than timed: templates
    # come from the memo and their scaling is canonical as it stands
    sp = load_presentation("Q_BD", 5)
    solves = [(slot, sp.mono_grading(slot), *sp.eval_mono(slot))
              for key in engine._sample_keys(sp) for slot in sp.coset_basis(key)]
    for _, grading, rho, fix in solves:  # warm up
        solve_with_coefficients(sp, grading, rho, fix)
    built = []
    init = PointScalar.__init__
    monkeypatch.setattr(PointScalar, "__init__",
                        lambda self, *args, **kw: built.append(args) or init(self, *args, **kw))
    for slot, grading, rho, fix in solves:
        assert solve_with_coefficients(sp, grading, rho, fix)[0].terms == {slot: ONE}
    assert len(solves) == 60 and built == []
    PointScalar.integer(2)
    assert len(built) == 1  # the wrapper counts


# the spanning grid: [-3, 3] per key component
SPAN_SPACES = ([("Q22", None), ("Gr222", None)] + [("Q_BD", q) for q in range(9)]
               + [("Q_DD", q) for q in range(2, 9)] + [("X1q", q) for q in range(9)])


def _grid_keys(sp):
    for key in itertools.product(range(-3, 4), repeat=len(sp.group.labels) - 1):
        try:
            sp.coset_basis(key)
        except NoFiniteTableError:
            continue  # a deep coset of the bare bundle
        yield key


def test_every_table_of_the_grid_spans_on_both_sides():
    tables = 0
    for name, q in SPAN_SPACES:
        sp = load_presentation(name, q)
        for key in _grid_keys(sp):
            assert engine._singular_sides(sp, key) == [], (sp.name, key)
            tables += 1
    assert tables == 1233


def test_q22_determinants_match_sympy():
    # the dense matrices over every basis key of every ring, against the
    # lattice cut: both determinants are +-1 on every coset of the grid
    q22 = load_presentation("Q22")
    for key in _grid_keys(q22):
        slots = q22.coset_basis(key)
        evals = [q22.eval_mono(m) for m in slots]
        rho = sympy.Matrix([[r.coefficient(k) for r, _ in evals]
                            for k in q22.underlying.basis_keys()])
        fix = sympy.Matrix([[f.parts[i].coefficient(k) for _, f in evals]
                            for i, ring in enumerate(q22.fixed_rings)
                            for k in ring.basis_keys()])
        assert (abs(rho.det()), abs(fix.det())) == (1, 1), key
        assert engine._singular_sides(q22, key) == [], key


def _solved_or_error(space, grading, rho, fix, ansatz=None):
    """A solve's (element, records), or its error's type and message."""
    try:
        element, records, _ = solve_with_coefficients(space, grading, rho, fix, ansatz=ansatz)
    except UnsolvableError as err:
        return type(err), str(err)
    return element, records


def test_the_coordinate_read_and_the_lattice_solve_agree(monkeypatch):
    # seeded combinations of dressed slots, and targets perturbed by one
    # slot's evaluation on one side (an undressed slot, an odd Burnside
    # difference, a wrong side, or an odd multiple of a 2) or by one basis
    # key: a table solve reads coordinates and calls no lattice when it
    # answers, and one lattice when it fails; the same candidates passed as
    # an ansatz go through the lattice, and the two must agree
    lattice, calls = engine._lattice_coefficients, []
    monkeypatch.setattr(engine, "_lattice_coefficients",
                        lambda *args: calls.append(args) or lattice(*args))
    rng = random.Random(21)
    outcomes = set()
    for name, q in (("X1q", 16), ("Q_BD", 5), ("Q_BD", 16), ("Q_DD", 5), ("Q_DD", 16),
                    ("Q22", None), ("Gr222", None)):
        sp = load_presentation(name, q)
        rings = (sp.underlying, *sp.fixed_rings)
        for key in dict.fromkeys((*engine._sample_keys(sp), *_grid_keys(sp))):
            monos = sp.coset_basis(key)
            for _ in range(4):
                grading = sp.mono_grading(rng.choice(monos)) + sp.group.element(
                    *rng.choice(SOLVE_SHIFTS))
                candidates = engine._dressed_slots(grading, *sp.coset_table(grading))
                terms = {}
                for template, mono in candidates:
                    burnside = template.shape() == (0, 0, 0, 0)
                    terms[mono] = template.scale(B(rng.randint(-3, 3),
                                                   rng.randint(-3, 3) if burnside else 0))
                rho, fix = RingElement(sp, grading, terms).evaluate()
                kind = rng.randrange(3)
                if kind == 1:
                    slot_rho, slot_fix = sp.eval_mono(rng.choice(monos))
                    if rng.randrange(2):
                        rho = rho + slot_rho
                    else:
                        fix = fix + slot_fix
                elif kind == 2:
                    ci = rng.randrange(len(rings))
                    extra = NonequivClass.monomial(rings[ci], rng.choice(rings[ci].basis_keys()))
                    if ci:
                        fix = FixedTuple(p + extra if i == ci - 1 else p
                                         for i, p in enumerate(fix.parts))
                    else:
                        rho = rho + extra
                read = _solved_or_error(sp, grading, rho, fix)
                where = (sp.name, str(grading), kind)
                if read[0] is UnsolvableError:  # the read declined, and the lattice worded it
                    assert len(calls) == 1, where
                else:  # the table solve read coordinates
                    assert not calls, where
                assert read == _solved_or_error(sp, grading, rho, fix, ansatz=candidates), where
                calls.clear()
                outcomes.add(read[1].split(" in degree")[0] if read[0] is UnsolvableError
                             else "solved" if read[0].terms else "zero")
    assert outcomes >= {"solved", "zero", "evaluation targets are inconsistent with the basis",
                        "no integer point: 1 is not a multiple of 2"}, outcomes


@pytest.mark.parametrize("name, q", [("Q22", None), ("Gr222", None), ("Q_BD", 3),
                                     ("Q_DD", 4), ("X1q", 3)])
def test_deleting_any_slot_of_a_sampled_coset_fails_the_coset_tables_check(
        monkeypatch, name, q):
    sp = load_presentation(name, q)
    coset_table = SpacePresentation.coset_table
    for key in engine._sample_keys(sp):
        monos, degrees = coset_table(sp, key)
        for i in range(len(monos)):
            cut = (monos[:i] + monos[i + 1:], degrees[:2 * i] + degrees[2 * i + 2:])
            monkeypatch.setattr(
                SpacePresentation, "coset_table",
                lambda self, k, key=key, cut=cut: cut if self is sp and (
                    k if isinstance(k, tuple) else k.coset_key()) == key
                else coset_table(self, k))
            report = verify_presentation(sp)
            assert report["checks"]["coset-tables"] is False, (sp.name, key, i)
            assert f"side of coset {key}" in report["failures"][-1], (sp.name, key, i)


def test_inconsistent_targets_are_rejected():
    g = BD2.mono_grading(BD2.mono(x=1))
    rho, fix = BD2.eval_mono(BD2.mono(x=1))
    with pytest.raises(UnsolvableError):
        solve_with_coefficients(BD2, g, rho * 0, fix)  # rho says 0, fix disagrees


def test_a_target_where_no_candidate_lives_is_inconsistent():
    g = BD2.mono_grading(BD2.mono(x=1))
    rho, fix = BD2.eval_mono(BD2.mono(x=1))
    ring = BD2.underlying
    supported = {k for _, m, _ in solve_with_coefficients(BD2, g, rho, fix)[1]
                 for k in BD2.eval_mono(m)[0].coeffs}
    stray = next(k for k in ring.basis_keys() if k not in supported)
    stray_rho = rho + NonequivClass.monomial(ring, stray)
    with pytest.raises(UnsolvableError, match="inconsistent"):
        solve_with_coefficients(BD2, g, stray_rho, fix)


def _dense_system(sp, records, rho, fix):
    """A row for every basis key of every ring, unknowns in the solver's order."""
    rings = [sp.underlying, *sp.fixed_rings]
    keys = [(i, k) for i, ring in enumerate(rings) for k in ring.basis_keys()]
    columns, unknowns = [], []
    for template, mono, coeff in records:
        mrho, mfix = sp.eval_mono(mono)
        classes = [mrho, *mfix.parts]
        multipliers = [template.rho_multiplier()] + [template.fix_multiplier()] * len(mfix.parts)
        if isinstance(coeff, BurnsideScalar):  # one unknown per evaluation side
            sides = [{0}, set(range(1, len(rings)))]
            unknowns += [coeff.rho, coeff.fix]
        else:
            sides = [set(range(len(rings)))]
            unknowns.append(coeff)
        for side in sides:
            columns.append([multipliers[i] * classes[i].coefficient(k) if i in side else 0
                            for i, k in keys])
    target = [[rho, *fix.parts][i].coefficient(k) for i, k in keys]
    return sympy.Matrix(columns).T, sympy.Matrix(target), unknowns


@pytest.mark.parametrize("name, q", [("Q_BD", 3), ("Q_DD", 4), ("Q22", None)])
def test_solves_match_the_dense_system(name, q):
    # every slot of the sampled cosets, dressed by each kind of point-ring
    # scalar; the dense solution is unique exactly when the solve is
    # unambiguous, and then it is the solve's
    sp = load_presentation(name, q)
    unique = 0
    for key in engine._sample_keys(sp):
        for m in sp.coset_basis(key):
            for shift in ((0, 0), (0, 1), (0, -2), (2, -2), (-2, 2)):
                template, _ = scalar_dressing(shift)
                rho, fix = sp.eval_mono(m)
                rho, fix = template.rho_multiplier() * rho, fix * template.fix_multiplier()
                g = sp.mono_grading(m) + sp.group.element(*shift)
                _, records, ambiguous = solve_with_coefficients(sp, g, rho, fix)
                matrix, target, unknowns = _dense_system(sp, records, rho, fix)
                solution, free = matrix.gauss_jordan_solve(target)
                where = (sp.name, key, mono_str(m), shift)
                assert ambiguous == bool(free), where
                if not free:
                    assert list(solution) == unknowns, where
                    unique += 1
    assert unique


def test_a_far_q22_coset_is_unambiguous_and_gives_its_slots_back():
    # a far coset whose slots use x0: its table spans, so no solve is ambiguous
    q22 = load_presentation("Q22")
    assert engine._singular_sides(q22, (-2, -2, -2)) == []
    for m in q22.coset_basis((-2, -2, -2)):
        el, _, ambiguous = solve_with_coefficients(q22, q22.mono_grading(m), *q22.eval_mono(m))
        assert not ambiguous
        assert el == RingElement.from_mono(q22, m)


def test_ansatz_solves_with_a_wide_kernel_or_a_large_denominator_answer():
    # four copies of x leave six of eight unknowns free, and the solve
    # raises rather than pick a point; the template 20 alone puts a
    # denominator of 20 on the rational solution, and the integer point is
    # still the one answer
    x, one = BD2.mono(x=1), PointScalar.integer(1)
    g = BD2.mono_grading(x)
    rho, fix = BD2.eval_mono(x)
    with pytest.raises(AmbiguousSolveError, match=re.escape(
            f"underdetermined solve in degree {g} of Q_BD(q=2): the evaluation "
            "pair does not separate x")):
        solve_with_coefficients(BD2, g, rho, fix, ansatz=[(one, x)] * 4)
    el, records, ambiguous = solve_with_coefficients(
        BD2, g, 100 * rho, fix * 100, ansatz=[(PointScalar.integer(20), x)])
    assert not ambiguous and el == 100 * elt(BD2, x=1)
    assert [c for _, _, c in records] == [B(5, 0)]


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(-6, 6).filter(bool), st.integers(-3, 3),
                          st.integers(-3, 3)), min_size=1, max_size=3))
def test_a_repeated_slot_ansatz_raises_exactly_with_two_or_more_candidates(drawn):
    # Burnside templates on one slot: one candidate is pinned down by x's
    # rho and fixed values, two or more leave a kernel
    x = BD2.mono(x=1)
    ansatz = [(PointScalar.integer(k), x) for k, _, _ in drawn]
    coeffs = [B(a, b) for _, a, b in drawn]
    element = RingElement.from_terms(BD2, [
        (template.scale(c), x) for (template, _), c in zip(ansatz, coeffs)],
        grading=BD2.mono_grading(x))
    if len(drawn) > 1:
        with pytest.raises(AmbiguousSolveError, match="does not separate"):
            solve_with_coefficients(BD2, element.grading, *element.evaluate(), ansatz=ansatz)
        return
    el, records, ambiguous = solve_with_coefficients(
        BD2, element.grading, *element.evaluate(), ansatz=ansatz)
    assert el == element and not ambiguous
    assert [c for _, _, c in records] == coeffs


def _scanned_candidates(sp, grading, monos):
    """The dressing as a full scan: every slot's grading re-read and dressed."""
    out = []
    for m in monos:
        dressed = scalar_dressing((grading - sp.mono_grading(m)).to_ro_c2())
        if dressed:
            out.append((dressed[0], m))
    return out


def test_candidates_match_the_full_dressing_scan():
    # same templates on the same slots in table order, which the records follow
    for name, q in TABLED:
        sp = load_presentation(name, q)
        for key in engine._sample_keys(sp):
            families = [sp.coset_table(key)]
            if sp.family in ("BD", "DD", "Gr", "Q22"):
                families.append(sp.section_family(key))
            targets = {sp.mono_grading(slot) + sp.group.element(*shift)
                       for slot in sp.coset_basis(key) for shift in SOLVE_SHIFTS}
            for monos, degrees in families:
                for g in targets:
                    assert (engine._dressed_slots(g, monos, degrees)
                            == _scanned_candidates(sp, g, monos)), (sp.name, key, str(g))


_EVAL_SPACES = (("X1q", 5), ("Q_BD", 3), ("Q_DD", 4), ("Q22", None), ("Gr222", None))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(_EVAL_SPACES), st.integers(0, 4), st.integers(0, 40),
       st.sampled_from(SOLVE_SHIFTS + ((-4, 4), (4, -4), (0, 5))),
       st.lists(st.tuples(st.integers(-4, 4), st.integers(-4, 4)), min_size=1, max_size=12))
def test_evaluation_matches_the_class_arithmetic(space, key_index, slot_index, shift, coeffs):
    # multi-term elements with Burnside, e^k, xi^k, tau_j and e^-2m*kappa
    # templates: the one-pass sums equal the class-operator sums
    sp = load_presentation(*space)
    keys = engine._sample_keys(sp)
    table = sp.coset_basis(keys[key_index % len(keys)])
    grading = sp.mono_grading(table[slot_index % len(table)]) + sp.group.element(*shift)
    candidates = engine._dressed_slots(grading, *sp.coset_table(grading))
    terms = {m: t.scale(B(a, b)) for (t, m), (a, b) in zip(candidates, itertools.cycle(coeffs))}
    element = RingElement(sp, grading, terms)
    rho = NonequivClass.zero(sp.underlying)
    fix = FixedTuple(NonequivClass.zero(ring) for ring in sp.fixed_rings)
    for mono, scalar in element.terms.items():
        mr, mf = sp.eval_mono(mono)
        rho = rho + scalar.rho_multiplier() * mr
        fix = fix + scalar.fix_multiplier() * mf
    assert element.evaluate() == (rho, fix)


def test_only_a_missing_table_keeps_the_reduced_form(monkeypatch):
    # a deep coset of the bare bundle has no finite table: the reduced form stands
    x1q = load_presentation("X1q", 2)
    deep = elt(x1q, z0=3)
    with pytest.raises(NoFiniteTableError):
        x1q.coset_basis(deep.grading)
    assert normal_form(deep) == deep
    # any other failure to build a table is not swallowed

    def broken(self, key):
        raise ValueError("no table for this coset")

    monkeypatch.setattr(SpacePresentation, "coset_table", broken)
    with pytest.raises(ValueError, match="no table for this coset"):
        normal_form(elt(BD2, x=1))


def test_tau_transfer():
    assert str(tau_transfer(elt(BD2, x=1))) == "tau2*x"
    assert str(tau_transfer(elt(BD2, x=1), 2)) == "tau4*x"
    # transfer of a unit times xi collapses by Frobenius reciprocity
    xi = RingElement.from_mono(BD2, BD2.mono(), PointScalar.xi_power(1))
    assert str(tau_transfer(RingElement.one(BD2)) * xi) == "g"


def test_printing_parenthesizes_additive_scalars():
    el = elt(BD2, PointScalar.from_burnside(B(5, 11)), x=1)
    assert str(el) == "(5+11*g)*x"
    gel = RingElement.from_mono(BD2, BD2.mono(), PointScalar.from_burnside(B(0, 1)))
    assert str(gel) == "g"
    assert str(elt(BD2, PointScalar.from_burnside(B(0, 1)), x=1)) == "g*x"


def test_evaluation_is_multiplicative_and_cached():
    u = elt(BD2, divq=1)
    v = elt(BD2, x=1)
    ru, fu = u.evaluate()
    rv, fv = v.evaluate()
    rw, fw = multiply(u, v).evaluate()
    assert rw == ru * rv and fw == fu * fv
    assert u.evaluate() is u.evaluate()


def test_a_lone_term_of_multipliers_one_reads_the_cached_pair(monkeypatch):
    # every slot of one sampled table, dressed with every template of the
    # gaps in [-4, 4]^2: the pair is the monomial's pair scaled term by term,
    # and only multipliers (1, 1) read the cache, with nothing summed
    summed = []
    add = engine._add_multiple
    monkeypatch.setattr(engine, "_add_multiple",
                        lambda acc, n, cls: summed.append(n) or add(acc, n, cls))
    templates = {dressed[0] for gap in itertools.product(range(-4, 5), repeat=2)
                 if (dressed := scalar_dressing(gap)) is not None}
    assert len(templates) > 1 and ONE in templates
    for name, q in TABLED:
        sp = load_presentation(name, q)
        for slot in sp.coset_basis(engine._sample_keys(sp)[1]):
            rho, fix = cached = sp.eval_trusted(slot)
            for template in templates:
                r, f = template.rho_multiplier(), template.fix_multiplier()
                grading = sp.mono_grading(slot) + sp.group.element(*template.grading())
                summed.clear()
                pair = RingElement(sp, grading, {slot: template}).evaluate()
                assert pair == (rho * r, fix * f), (sp.name, slot, template)
                assert (pair is cached) == ((r, f) == (1, 1)) == (not summed)


def test_verify_reports_a_relation_whose_normal_form_raises(monkeypatch):
    # in a decided degree the normal form is the table solve of the pair
    def broken(*args, **kwargs):
        raise UnsolvableError("no basis here")

    monkeypatch.setattr(engine, "solve_with_coefficients", broken)
    report = verify_presentation(load_presentation("Q_BD", 1))
    assert report["checks"]["relation:divided-class"] is False
    assert "relation:divided-class: no basis here" in report["failures"]
    assert report["ok"] is False


@pytest.mark.parametrize("space, exps", [
    (("Q_BD", 2), {"z00": 1, "z11": 1, "z1": 1, "divq": 1, "xp": 2}),  # torsion-capable
    (("BU1", None), {"cw": 2}),  # no finite table
])
def test_verify_fails_a_relation_in_a_degree_evaluation_does_not_decide(
        monkeypatch, space, exps):
    sp = load_presentation(*space)
    mono = sp.mono(exps)
    monkeypatch.setattr(sp, "relations", (presentation.Relation(
        "undecided", ((ONE, mono),), ((ONE, mono),)),))
    grading = sp.mono_grading(mono)
    assert not engine._evaluation_decides(sp, grading)
    report = verify_presentation(sp)
    assert report["checks"]["relation:undecided"] is False
    assert (f"relation:undecided: evaluation does not decide degree {grading} of {sp.name}"
            in report["failures"])


def test_verify_presentation_report_shape():
    report = verify_presentation(load_presentation("Q_BD", 0))
    assert report["schema"] == "quadrics/verify/1"
    assert report["space"] == "Q_BD(q=0)"
    assert report["ok"] is True
    assert report["failures"] == []
    assert all(isinstance(v, bool) for v in report["checks"].values())
    assert len(report["checks"]) >= 5


def test_verify_records_a_product_that_cannot_be_solved(monkeypatch):
    # with the last slot dropped from every Q22 table (the last slot of its
    # x block) nothing lives in degree 2 + 2s, so the bundle-factor product
    # cannot be re-solved
    block = SpacePresentation._block
    monkeypatch.setattr(SpacePresentation, "_block", lambda self, key, prefix: (
        block(self, key, prefix)[:-1] if self.family == "Q22" and "x" in prefix
        else block(self, key, prefix)))
    report = verify_presentation(presentation._build_q22())
    assert report["checks"]["identification:bundle-factor"] is False
    assert ("identification:bundle-factor: nothing lives in degree 2 + 2s of Q22"
            in report["failures"])
    assert report["ok"] is False


def test_verify_reports_a_coset_slot_that_does_not_round_trip(monkeypatch):
    # with its evaluation pair zeroed, z11*cw*cxw is a zero column on both
    # sides, so neither side of its coset spans
    bd3 = presentation._build_quadric("BD", 3)
    slot = bd3.mono(z11=1, cw=1, cxw=1)
    assert slot in bd3.coset_basis((1, 0))
    eval_trusted = SpacePresentation.eval_trusted

    def zeroed(self, m):
        if self is bd3 and m == slot:
            return (NonequivClass.zero(self.underlying),
                    FixedTuple(NonequivClass.zero(r) for r in self.fixed_rings))
        return eval_trusted(self, m)

    monkeypatch.setattr(SpacePresentation, "eval_trusted", zeroed)
    report = verify_presentation(bd3)
    assert report["checks"]["coset-tables"] is False
    assert report["failures"] == [
        "coset-tables: rho side of coset (1, 0), fixed side of coset (1, 0)"]
    assert report["ok"] is False


def test_verify_reports_a_coset_slot_that_solves_to_an_earlier_candidate(monkeypatch):
    # z00*z11^2*cw evaluating like its earlier candidate e^2*z11 is a zero
    # rho column and repeats z11's fixed column, so neither side spans, and
    # a solve of that pair has a kernel and raises, naming both candidates
    bd3 = presentation._build_quadric("BD", 3)
    slot = bd3.mono(z00=1, z11=2, cw=1)
    assert slot in bd3.coset_basis((1, 0))
    earlier = RingElement.from_mono(bd3, bd3.mono(z11=1), PointScalar.e_power(2))
    grading = bd3.mono_grading(slot)
    assert engine._dressed_slots(grading, *bd3.coset_table(grading))[0] == \
        (PointScalar.e_power(2), bd3.mono(z11=1))
    pair = earlier.evaluate()
    assert pair[0] or pair[1]
    eval_trusted = SpacePresentation.eval_trusted

    def dependent(self, m):
        return pair if self is bd3 and m == slot else eval_trusted(self, m)

    monkeypatch.setattr(SpacePresentation, "eval_trusted", dependent)
    assert engine._singular_sides(bd3, (1, 0)) == ["rho", "fixed"]
    with pytest.raises(AmbiguousSolveError, match=re.escape(
            "does not separate e^2*z11, z00*z11^2*cw")):
        solve_with_coefficients(bd3, grading, *pair)
    report = verify_presentation(bd3)
    assert report["checks"]["coset-tables"] is False
    assert report["failures"] == [
        "coset-tables: rho side of coset (1, 0), fixed side of coset (1, 0)"]
    assert report["ok"] is False


def test_verify_lists_every_failing_side_of_the_coset_tables(monkeypatch):
    # ten sides fail, and the report names them all; a lone line is decided
    # by _signed_row and a longer one by _inverse, so both refuse here
    monkeypatch.setattr(engine, "_inverse", lambda columns: None)
    monkeypatch.setattr(engine, "_signed_row", lambda classes: None)
    bd3 = presentation._build_quadric("BD", 3)
    sides = [f"{side} side of coset {key}" for key in engine._sample_keys(bd3)
             for side in ("rho", "fixed")]
    assert len(sides) == 10
    report = verify_presentation(bd3)
    assert report["failures"] == ["coset-tables: " + ", ".join(sides)]


def _whole_table_sides(sp, key):
    """_singular_sides of one table, each side decided by its whole _inverse."""
    evals = [sp.eval_trusted(m) for m in sp.coset_basis(key)]
    sides = (("rho", sp.underlying.rank(), [(rho,) for rho, _ in evals]),
             ("fixed", sum(ring.rank() for ring in sp.fixed_rings),
              [fix.parts for _, fix in evals]))
    return [side for side, rank, columns in sides
            if len(columns) != rank or engine._inverse(columns) is None]


def test_the_line_verdict_is_the_whole_table_verdict():
    for name, q in TABLED + [("Q_BD", 1024), ("Q_DD", 1024)]:
        sp = load_presentation(name, q)
        for key in engine._sample_keys(sp):
            assert engine._singular_sides(sp, key) == _whole_table_sides(sp, key), \
                (sp.name, key)


def test_two_lines_that_share_a_row_fail_the_side(monkeypatch):
    # z00*z11^2*cw given z11's rho class: each rho line alone is a basis of
    # its own rows, but two of them hold the unit, so the side does not span
    bd3 = presentation._build_quadric("BD", 3)
    slot, earlier = bd3.mono(z00=1, z11=2, cw=1), bd3.mono(z11=1)
    assert {slot, earlier} <= set(bd3.coset_basis((1, 0)))
    assert bd3.mono_grading(slot).underlying_dim() != bd3.mono_grading(earlier).underlying_dim()
    pair = (bd3.eval_trusted(earlier)[0], bd3.eval_trusted(slot)[1])
    eval_trusted = SpacePresentation.eval_trusted

    def shared(self, m):
        return pair if self is bd3 and m == slot else eval_trusted(self, m)

    monkeypatch.setattr(SpacePresentation, "eval_trusted", shared)
    assert engine._singular_sides(bd3, (1, 0)) == ["rho"]
    assert _whole_table_sides(bd3, (1, 0)) == ["rho"]


def test_a_doubled_lone_slot_or_a_line_of_det_two_fails_its_side(monkeypatch):
    # z00*z11^2*cw is alone on its rho line (one + sigma = 2) and shares
    # its fixed line (one = 0) with z11, of fixed parts (1, 0, 1).  Given
    # 2c or c^2 + c under rho, the lone slot is no signed basis class; given
    # fixed parts (1, 0, -1), the fixed line is [[1, 1], [1, -1]], |det| = 2.
    # c^2 + c lies off the slot's degree: the whole matrix, one column step
    # from the sound one, is unimodular, but the line verdict refuses it
    bd3 = presentation._build_quadric("BD", 3)
    slot, other = bd3.mono(z00=1, z11=2, cw=1), bd3.mono(z11=1)
    rho, fix = bd3.eval_trusted(slot)
    parts = bd3.eval_trusted(other)[1].parts
    c2 = bd3.eval_trusted(bd3.mono(z11=1, cw=1, cxw=1))[0]
    gradings = list(map(bd3.mono_grading, bd3.coset_basis((1, 0))))
    assert [g.underlying_dim() for g in gradings].count(2) == 1
    assert [g.one for g in gradings].count(0) == 2
    eval_trusted = SpacePresentation.eval_trusted
    det_two = FixedTuple((*parts[:-1], -parts[-1]))
    for pair, sides, whole in (((rho * 2, fix), ["rho"], ["rho"]),
                               ((c2 + rho, fix), ["rho"], []),
                               ((rho, det_two), ["fixed"], ["fixed"])):
        monkeypatch.setattr(SpacePresentation, "eval_trusted", lambda self, m, pair=pair:
                            pair if self is bd3 and m == slot else eval_trusted(self, m))
        assert engine._singular_sides(bd3, (1, 0)) == sides
        assert _whole_table_sides(bd3, (1, 0)) == whole


def test_verify_asks_no_zeta_power_and_eliminates_only_lines_of_two_slots(monkeypatch):
    # a count guard with no timing in it: a zeta is a mask, so a fresh
    # verify leaves no zeta key in the power cache, and a lone slot is read
    # directly, so no line of one column reaches the block cut; verify's
    # solves may cut an empty line, whose inverse is {}
    calls = []
    blocks = engine._blocks
    monkeypatch.setattr(engine, "_blocks",
                        lambda columns: calls.append(len(columns)) or blocks(columns))
    bd16 = presentation._build_quadric("BD", 16)
    assert verify_presentation(bd16)["ok"]
    assert bd16._masks.keys() == {"z00", "z11", "z1"}
    assert not any(name in bd16._masks for name, _ in bd16._powers)
    assert max(calls) >= 2 and 1 not in calls


def test_a_warm_solve_reuses_the_line_inverses(monkeypatch):
    # every dressed degree of one table, solved twice: the second round
    # finds every line's inverse in the memo, and no solve cuts a lone slot
    sp = presentation._build_quadric("BD", 5)
    solves = []
    for slot in sp.coset_basis((1, 0)):
        for gap in itertools.product(range(-2, 3), repeat=2):
            dressed = scalar_dressing(gap)
            if dressed is not None:
                element = RingElement.from_mono(sp, slot, dressed[0])
                solves.append((element.grading, *element.evaluate()))
    inverses, blocks = [], []
    inverse, cut = engine._inverse, engine._blocks
    monkeypatch.setattr(engine, "_inverse",
                        lambda columns: inverses.append(len(columns)) or inverse(columns))
    monkeypatch.setattr(engine, "_blocks",
                        lambda columns: blocks.append(len(columns)) or cut(columns))
    for grading, rho, fix in solves:
        solve_with_coefficients(sp, grading, rho, fix)
    assert inverses and 1 not in blocks
    inverses.clear()
    for grading, rho, fix in solves:
        solve_with_coefficients(sp, grading, rho, fix)
    assert inverses == []


def test_verify_keeps_no_line_inverse(monkeypatch):
    # the coset-tables check inverts each line without the solve memo:
    # routing it through _line_inverse raised reproduce peak_rss_mb by
    # 1.1 MB (20.7 -> 21.8, +5.3%) and wall_s by about 2.5%; and it reads
    # a lone line's signed row, so no line of one column reaches _inverse
    columns_seen = []
    inverse = engine._inverse
    monkeypatch.setattr(engine, "_inverse",
                        lambda columns: columns_seen.append(len(columns)) or inverse(columns))
    for family, q in (("DD", 16), ("BD", 1024)):
        sp = presentation._build_quadric(family, q)
        for key in engine._sample_keys(sp):
            assert engine._singular_sides(sp, key) == [], (sp.name, key)
        assert sp._inverses == {}
    assert columns_seen and 1 not in columns_seen


@pytest.mark.parametrize("q", (32, 128, 1024))
@pytest.mark.parametrize("family", ("BD", "DD"))
def test_large_quadrics_verify(family, q):
    report = verify_presentation(load_presentation(f"Q_{family}", q))
    assert report["ok"], report["failures"]


@pytest.mark.parametrize("name, q", [("Q_BD", 1024), ("Q_DD", 1024),
                                     ("Q22", None), ("Gr222", None)])
def test_sampled_slot_matrices_split_into_blocks_of_at_most_four_columns(name, q):
    # what keeps verify's spanning check linear in q
    sp = load_presentation(name, q)
    for key in engine._sample_keys(sp):
        evals = [sp.eval_mono(m) for m in sp.coset_basis(key)]
        for columns in ([(rho,) for rho, _ in evals], [fix.parts for _, fix in evals]):
            assert max(len(cols) for cols, _, _ in engine._blocks(columns)) <= 4, (key, columns)


def test_scalars_multiply_elements_from_either_side():
    u = elt(BD2, x=1)
    assert B(2, 1) * u == u * B(2, 1) == scalar_multiple(u, PointScalar.from_burnside(B(2, 1)))
    assert PointScalar.integer(2) * u == u * PointScalar.integer(2) == 2 * u == u * 2
    assert str(B(2, 1) * u) == "(2+g)*x"


def test_degree_checks_on_the_integer_path_still_fail_loudly(monkeypatch):
    # the degree is compared on ints, and the group too: a Q22 grading, and
    # x's own coordinates in a group of other labels, are refused as well
    one, x = PointScalar.integer(1), BD2.mono(x=1)
    degree = BD2.mono_grading(x)
    q22 = load_presentation("Q22")
    for wrong in (degree + BD2.group.element(sigma=1),
                  degree + BD2.group.omega(BD2.group.labels[0]),
                  q22.mono_grading(q22.mono(x=1)),
                  GradingElement(GradingGroup(("a", "b", "c")), degree.one, degree.sigma,
                                 degree.omega)):
        with pytest.raises(ValueError, match=re.escape(
                f"term x has degree {degree}, not {wrong}")):
            RingElement.from_terms(BD2, ((one, x),), grading=wrong)
    # the dressing reads slot degrees only from a coset table or section
    # family, whose slots are checked against the coset key when built: x
    # alone, handed over as the one slot of x's block one z1 step away
    off = (degree + BD2.group.omega(BD2.group.labels[-1])).coset_key()
    monkeypatch.setattr(presentation, "_x1q_slots", lambda k, q, *, has_divq: [{}])
    with pytest.raises(AssertionError, match=re.escape(f"slot x lands off-coset {off}")):
        BD2._block(off, {"x": 1})


def test_an_off_degree_term_is_named_as_an_element_prints_it():
    # a Burnside sum keeps its parentheses, so the term reads as one term
    gr = load_presentation("Gr222")
    with pytest.raises(ValueError, match=re.escape(
            "term (2-3*g)*z1*x has degree 4s, not 4 + 2W00 + 2W11")):
        parse("(1+g)*divq + (2-3*g)*z1*x").to_element(gr)


def _fraction_gauss_jordan(rows, rhs, ncols):
    """Gauss-Jordan over Fraction: the reference for consistency and rank."""
    m = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = m[r][c]
        m[r] = [x / inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    for row in m[r:]:
        if row[ncols]:
            raise UnsolvableError("evaluation targets are inconsistent with the basis")
    sol = [Fraction(0)] * ncols
    for row, c in zip(m, pivots):
        sol[c] = row[ncols]
    kernel = []
    for fc in [c for c in range(ncols) if c not in pivots]:
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for row, pc in zip(m, pivots):
            vec[pc] = -row[fc]
        kernel.append(vec)
    return sol, kernel


@st.composite
def integer_systems(draw):
    """Rows drawn from a small pool that holds the zero row, so repeats make
    systems rank-deficient; the right side is either A*x (consistent) or
    drawn freely (often inconsistent)."""
    ncols = draw(st.integers(1, 12))
    entry = st.integers(-5, 5)
    pool = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols),
                         min_size=1, max_size=12)) + [[0] * ncols]
    rows = [list(row) for row in draw(st.lists(st.sampled_from(pool), max_size=12))]
    if draw(st.booleans()):
        x = draw(st.lists(entry, min_size=ncols, max_size=ncols))
        rhs = [sum(a * b for a, b in zip(row, x)) for row in rows]
    else:
        rhs = draw(st.lists(entry, min_size=len(rows), max_size=len(rows)))
    return rows, rhs, ncols


def _solve_or_error(solve, system):
    rows, rhs, ncols = system
    try:
        return solve([list(row) for row in rows], list(rhs), ncols)
    except UnsolvableError as err:
        return f"{type(err).__name__}: {err}"


def _has_integer_solution(rows, rhs):
    """Read off the Smith form S = U*A*V: A*x = b is solvable over Z exactly
    when S*y = U*b is, entry by entry."""
    if not rows:
        return True
    smith, u, _ = smith_normal_decomp(sympy.Matrix(rows), domain=sympy.ZZ)
    ub = u * sympy.Matrix(rhs)
    diagonal = [smith[i, i] for i in range(min(smith.shape))]
    diagonal += [0] * (len(rhs) - len(diagonal))
    return all(ub[i] % d == 0 if d else ub[i] == 0 for i, d in enumerate(diagonal))


@settings(max_examples=400, deadline=None)
@given(integer_systems())
@example(([[1, 2], [2, 4]], [3, 6], 2))  # rank-deficient, consistent
@example(([[1, 2], [2, 4]], [3, 5], 2))  # rank-deficient, inconsistent
@example(([[0, 0, 0], [3, -5, 4]], [0, 2], 3))  # a zero row
@example(([[0, 0]], [1], 2))  # 0 = 1
@example(([], [], 3))  # no equations: everything is free
@example(([[2], [2]], [1, 0], 1))  # no integer point, and inconsistent over Q
def test_integer_solve_matches_gauss_jordan_and_the_smith_form(system):
    rows, rhs, ncols = system
    matrix = sympy.Matrix(len(rows), ncols, [a for row in rows for a in row])
    kernel, index = engine._kernel([list(row) for row in rows], ncols)
    assert len(kernel) == ncols - matrix.rank()
    _assert_saturated_kernel(matrix, kernel)
    if len(rows) == ncols and not kernel:  # a square system: the index is |det|
        assert index == abs(matrix.det())
    got = _solve_or_error(engine._integer_solve, system)
    reference = _solve_or_error(_fraction_gauss_jordan, system)
    inconsistent = isinstance(reference, str)
    assert (isinstance(got, str) and "inconsistent" in got) == inconsistent
    if inconsistent:
        return
    if not _has_integer_solution(rows, rhs):
        assert isinstance(got, str) and "no integer point" in got
        return
    point, kernel = got
    assert matrix * sympy.Matrix(point) == sympy.Matrix(len(rhs), 1, rhs)
    assert len(kernel) == len(reference[1])  # ncols - rank
    _assert_saturated_kernel(matrix, kernel)


def _assert_saturated_kernel(matrix, kernel):
    """Every vector lies in ker A, and, with as many vectors as ncols - rank,
    a primitive lattice of full rank in ker A is all of ker A ∩ Z^n."""
    assert all(matrix * sympy.Matrix(vec) == sympy.zeros(matrix.rows, 1) for vec in kernel)
    if kernel:
        smith = smith_normal_form(sympy.Matrix(kernel).T, domain=sympy.ZZ)
        assert all(smith[i, i] == 1 for i in range(len(kernel)))


_RINGS = tuple(TruncatedRing.poly_window(8, f"w{i}") for i in range(2))


@st.composite
def sparse_columns(draw):
    """Columns as (ring, key, value) entries over 2 rings of 8 keys: a few
    entries each, from a small pool of keys, so columns often share rows."""
    spots = draw(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 7)),
                          min_size=1, max_size=8, unique=True))
    entry = st.tuples(st.sampled_from(spots), st.integers(-3, 3).filter(bool))
    columns = draw(st.lists(st.lists(entry, max_size=3, unique_by=lambda e: e[0]),
                            min_size=1, max_size=8))
    return [[(ci, k, c) for (ci, k), c in column] for column in columns]


@settings(max_examples=400, deadline=None)
@given(sparse_columns())
@example([])  # no columns
@example([[(0, 0, 1)], []])  # a zero column
@example([[(0, 0, 1), (0, 1, 1)], [(0, 0, 1), (0, 1, -1)], [(1, 2, 1)]])  # det 2, then det 1
@example([[(0, 0, 1)], [(0, 0, 2), (0, 1, 1)], [(0, 1, 3)]])  # 3 columns on 2 rows
@example([[(0, 0, 1), (1, 3, 1)]])  # 1 column on 2 rows: no kernel, index 1, not square
@example([[(0, 0, 2), (0, 1, 1)], [(0, 0, 1), (0, 1, 1)]])  # a 2x2 block with det 1
def test_blockwise_basis_check_matches_the_whole_matrix_cut(entries):
    # the dual builds exactly when the whole matrix is square and its cut
    # finds no kernel and index 1 (|det| = 1), and then it is the inverse:
    # the coordinates of column j are the j-th unit vector
    columns = [tuple(NonequivClass(ring, {(k,): c for ci, k, c in column if ci == i})
                     for i, ring in enumerate(_RINGS)) for column in entries]
    rows: dict = {}  # the whole matrix, its rows in the order _blocks meets them
    for j, classes in enumerate(columns):
        for ci, cls in enumerate(classes):
            for key, c in cls.coeffs.items():
                rows.setdefault((ci, key), [0] * len(columns))[j] = c
    basis, index = engine._kernel(list(rows.values()), len(columns))
    square = len(rows) == len(columns)
    inverse = engine._inverse(columns)
    assert (inverse is None) == (not square or bool(basis) or index != 1)
    if square:
        matrix = sympy.Matrix(list(rows.values()))
        assert (inverse is not None) == (abs(matrix.det()) == 1)
    if inverse is not None:
        n = len(columns)
        assert inverse.keys() == rows.keys()
        for j, classes in enumerate(columns):
            assert engine._coordinates(inverse, classes, n) == [int(i == j) for i in range(n)]
    if not columns:  # an empty line: no rows, and only zero lies on it
        assert inverse == {}
        zero = tuple(NonequivClass.zero(ring) for ring in _RINGS)
        assert engine._coordinates(inverse, zero, 0) == []
        one = (NonequivClass(_RINGS[0], {(0,): 1}), zero[1])
        assert engine._coordinates(inverse, one, 0) is None
