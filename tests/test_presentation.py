"""Space presentations: catalogues, coset tables, evaluation, serialization."""

import itertools
import json
import random
import re

import pytest

from quadrics import engine, presentation
from quadrics.cli import ZETA_NAMES, parse
from quadrics.nonequiv import NonequivClass
from quadrics.presentation import (
    FixedTuple, Letter, NoFiniteTableError, SpacePresentation,
    load_presentation, mono_mul, mono_str,
)
from quadrics.scalars import PointScalar

ALL_SPACES = (
    [("BU1", None), ("Q22", None), ("Gr222", None)]
    + [("X1q", q) for q in range(4)]
    + [("Q_BD", q) for q in range(5)]
    + [("Q_DD", q) for q in range(2, 5)]
)


# every space up to q = 16, written out
LOADABLE = (
    [("BU1", None), ("Q22", None), ("Gr222", None)]
    + [("X1q", q) for q in range(17)]
    + [("Q_BD", q) for q in range(17)]
    + [("Q_DD", q) for q in range(2, 17)]
)


def spaces():
    return [load_presentation(n, q) for n, q in ALL_SPACES]


def test_catalogue_names_and_parameters():
    assert load_presentation("BU1").name == "BU1"
    assert load_presentation("Q_BD", 0).name == "Q_BD(q=0)"
    assert load_presentation("Q_DD", 3).name == "Q_DD(q=3)"
    assert load_presentation("Q22").name == "Q22"
    assert load_presentation("Gr222").name == "Gr222"
    # the loader caches: same object back for the same request
    assert load_presentation("Q_BD", 2) is load_presentation("Q_BD", 2)


def test_every_spelling_of_a_request_loads_one_space():
    # a default or keyword q is the same request, so elements loaded
    # through two spellings multiply
    for first, second in ((load_presentation("Gr222"), load_presentation("Gr222", None)),
                          (load_presentation("Q_BD", 2), load_presentation("Q_BD", q=2))):
        assert first is second, first.name
        x, y = (engine.RingElement.from_mono(sp, sp.mono(x=1)) for sp in (first, second))
        assert engine.multiply(x, y) == engine.multiply(x, x), first.name


def test_catalogue_rejects_bad_requests():
    with pytest.raises(ValueError):
        load_presentation("nope")
    with pytest.raises(ValueError):
        load_presentation("Q_DD", 1)        # diagonal family starts at q=2
    with pytest.raises(ValueError):
        load_presentation("Q_BD")           # q required
    with pytest.raises(ValueError):
        load_presentation("Q22", 3)         # does not take a parameter q
    with pytest.raises(ValueError):
        load_presentation("Q_BD", 1025)     # beyond the supported range, MAX_Q = 1024


def test_component_labels():
    assert load_presentation("BU1").group.labels == ("0", "1")
    assert load_presentation("X1q", 2).group.labels == ("0", "1")
    assert load_presentation("Q_BD", 1).group.labels == ("00", "11", "1")
    assert load_presentation("Q_DD", 2).group.labels == ("00", "11", "1")
    assert load_presentation("Q22").group.labels == ("00", "11", "01", "10")
    assert load_presentation("Gr222").group.labels == ("00", "11", "1")


def test_letter_orders():
    assert load_presentation("X1q", 2).letter_order == ("z0", "z1", "cw", "cxw")
    assert load_presentation("X1q", 0).letter_order == ("z0", "z1")
    assert load_presentation("Q_BD", 0).letter_order == (
        "z00", "z11", "z1", "cw", "cxw", "x", "xp")
    assert load_presentation("Q_BD", 3).letter_order == (
        "z00", "z11", "z1", "cw", "cxw", "divq", "x", "xp")
    assert load_presentation("Gr222").letter_order == (
        "z00", "z11", "z1", "cl", "cxl", "divq", "x", "xp")


def test_zeta_letters_follow_the_component_labels():
    for sp in spaces():
        zetas = [n for n in sp.letter_order if n in ZETA_NAMES]
        assert zetas == [f"z{label}" for label in sp.group.labels], sp.name
        assert sp.letter_order[:len(zetas)] == tuple(zetas), sp.name


def test_no_letter_is_read_as_a_scalar():
    # g, kappa, e, xi, tau<n> and q are the surface syntax's own names
    one = PointScalar.integer(1)
    for sp in spaces():
        for name in sp.letter_order:
            assert parse(name).terms == ((one, ((name, 1),)),), (sp.name, name)


def test_relations_state_only_what_no_rule_says():
    one = PointScalar.integer(1)
    for sp in spaces():
        rule_sides = {(((one, rule.lhs),), rule.rhs) for rule in sp.rules}
        for rel in sp.relations:
            assert (rel.lhs, rel.rhs) not in rule_sides, (sp.name, rel.name)


def test_mono_constructor_and_printer():
    sp = load_presentation("Q_BD", 2)
    m = sp.mono(z00=-2, cw=1, x=1)
    assert m == (("z00", -2), ("cw", 1), ("x", 1))
    assert mono_str(m) == "z00^-2*cw*x"
    assert mono_str(sp.mono()) == "1"
    with pytest.raises(ValueError, match=re.escape("'cl' is not a generator of Q_BD(q=2)")):
        sp.mono(cl=1)                       # not a letter of this space


def test_letters_are_checked_where_monomials_come_in():
    # products of known monomials go unchecked; declared and parsed ones are checked
    for name, q in (("Q_BD", 2), ("Q22", None), ("Gr222", None)):
        sp = load_presentation(name, q)
        with pytest.raises(ValueError, match=re.escape(f"'bogus' is not a generator of {sp.name}")):
            sp.mono(bogus=1)


def test_negative_powers_need_a_license():
    sp = load_presentation("Q_BD", 2)
    assert not sp.is_admissible(sp.mono(z00=-1))
    assert sp.is_admissible(sp.mono(z00=-1, cw=1))
    assert not sp.is_admissible(sp.mono(z1=-1))
    assert not sp.is_admissible(sp.mono(cw=-1))
    # the lonely ruling class is invertible on the smallest odd quadric
    sp0 = load_presentation("Q_BD", 0)
    assert sp0.is_admissible(sp0.mono(z1=-3))


def test_a_licensed_divided_class_restricts_to_zero_on_its_component():
    # z<c>^-1 * L exists only if L = z<c> * (z<c>^-1 * L) vanishes on c
    for name, q in LOADABLE:
        sp = load_presentation(name, q)
        labels = sp.group.labels
        for letter in sp.letters.values():
            for zeta in letter.credits:
                assert zeta in {f"z{label}" for label in labels}, (sp.name, zeta)
                part = letter.fix.parts[labels.index(zeta[1:])]
                assert not part, (sp.name, letter.name, zeta, str(part))


def test_classifying_space_has_no_divided_classes():
    bu1 = load_presentation("BU1")
    assert not bu1.is_admissible(bu1.mono(z0=-1, cw=1))
    assert not bu1.is_admissible(bu1.mono(z1=-1, cxw=1))


def test_complementary_section_lies_in_the_parity_ruling():
    # xp is the section disjoint from x: in Q^{2q} it shares x's ruling
    # y exactly when q is odd, and on the middle Q^{2q-2} exactly when q
    # is even
    for name, q in [("Q_DD", q) for q in range(2, 17)] + [("Gr222", None)]:
        sp = load_presentation(name, q)
        q = sp.q
        c = NonequivClass.from_exponents(sp.underlying, (1, 0))
        y = NonequivClass.from_exponents(sp.underlying, (0, 1))
        rho, fix = sp.eval_mono(sp.mono(xp=1))
        assert rho == (c ** q - y if q % 2 == 0 else y), sp.name
        _, x_fix = sp.eval_mono(sp.mono(x=1))
        y_m = x_fix.parts[2]
        c_m = sp.eval_mono(sp.mono(cxl=1) if name == "Gr222"
                           else sp.mono(cxw=1))[1].parts[2]
        assert fix.parts[:2] == (NonequivClass.unit(sp.fixed_rings[0]),
                                 NonequivClass.zero(sp.fixed_rings[1])), sp.name
        assert fix.parts[2] == (y_m if q % 2 == 0 else c_m ** (q - 1) - y_m), sp.name
        assert not rho * sp.eval_mono(sp.mono(x=1))[0], sp.name


def test_quadric_coset_tables_match_hand_expansion():
    bd2 = load_presentation("Q_BD", 2)
    assert [mono_str(m) for m in bd2.coset_basis((0, -2))] == [
        "z00^2*z11^2", "z00*z11*cxw", "divq",
        "x", "z00*z11*cw*x", "cw*cxw*x",
    ]
    bd0 = load_presentation("Q_BD", 0)
    assert [mono_str(m) for m in bd0.coset_basis((0, 0))] == ["1", "x"]


def test_grassmannian_coset_tables_match_hand_expansion():
    gr = load_presentation("Gr222")
    assert [mono_str(m) for m in gr.coset_basis((4, 2))] == [
        "z11^4*z1^2", "z00^-1*z11^3*cl", "z00^-2*z11^2*cl*cxl",
        "z00^-3*z11*x", "z00^-4*cxl*x", "z00^-3*z11*cl*cxl*x",
    ]
    # the mirrored coset swaps the two section families
    assert [mono_str(m) for m in gr.coset_basis((-4, -2))] == [
        "z00^4*z1^2", "z00^3*z11^-1*cl", "z00^2*z11^-2*cl*cxl",
        "z00*z11^-3*xp", "z11^-4*cxl*xp", "z00*z11^-3*cl*cxl*xp",
    ]


def test_four_point_quadric_coset_at_twice_sigma():
    q22 = load_presentation("Q22")
    key = q22.mono_grading(q22.mono(x=1)).coset_key()
    assert key == (0, 0, 0)
    assert [mono_str(m) for m in q22.coset_basis(key)] == [
        "1", "z00*z11*cw", "x", "z00*z11*cw*x",
    ]


def test_coset_tables_are_graded_and_admissible():
    rng = random.Random(11)
    for sp in spaces():
        if sp.family == "BU1":
            with pytest.raises(ValueError):
                sp.coset_basis((0,))
            continue
        width = {"X1q": 1, "Q22": 3}.get(sp.family, 2)
        for _ in range(6):
            if sp.family == "X1q":
                # cosets at or below -q have no finite table on a bare bundle
                key = (rng.randint(1 - sp.q, 3),)
            else:
                key = tuple(rng.randint(-3, 3) for _ in range(width))
            for m in sp.coset_basis(key):
                assert sp.mono_grading(m).coset_key() == key
                assert sp.is_admissible(m)


def test_every_coset_table_has_one_slot_per_fixed_cell():
    # a coset summand is free on one generator per cell, and the cells meet
    # the fixed sets in sum_c rank H*(X^c) cells
    tables = 0
    for name, q in LOADABLE:
        sp = load_presentation(name, q)
        if sp.family == "BU1":
            continue  # no coset tables
        rank = sum(r.rank() for r in sp.fixed_rings)
        for key in itertools.product(range(-5, 6), repeat=len(sp.group.labels) - 1):
            try:
                table = sp.coset_basis(key)
            except NoFiniteTableError:
                continue  # a deep coset of the bare bundle
            assert len(table) == rank, (sp.name, key)
            tables += 1
    assert tables == 5496


def test_section_family_is_the_tables_x_block():
    # wherever the table writes the section family on x: on a quadric
    # coset with m >= 0, and on a Q22 coset with m >= 0 and n >= 0
    keys = 0
    for name, q in LOADABLE:
        sp = load_presentation(name, q)
        if "x" not in sp.letters:
            continue  # BU1 and X1q have no section class
        grid = ([k for k in itertools.product(range(-3, 4), repeat=3)
                 if k[0] >= 0 and k[2] >= k[1]] if sp.family == "Q22"
                else itertools.product(range(6), range(-5, 6)))
        for key in grid:
            monos, degrees = sp.coset_table(key)
            x_slots = [i for i, m in enumerate(monos) if dict(m).get("x")]
            assert sp.section_family(key) == (
                tuple(monos[i] for i in x_slots),
                tuple(d for i in x_slots for d in degrees[2 * i:2 * i + 2])), (sp.name, key)
            keys += 1
    assert keys == 2290


def test_a_key_of_the_wrong_width_is_rejected():
    for name, q, key in [("X1q", 2, (0, 0)), ("Q_BD", 2, (0,)), ("Q22", None, (0, 0))]:
        sp = load_presentation(name, q)
        with pytest.raises(ValueError, match="coset key"):
            sp.coset_table(key)
        if "x" in sp.letters:
            with pytest.raises(ValueError, match="coset key"):
                sp.section_family(key)


def test_generator_evaluation_samples():
    bd2 = load_presentation("Q_BD", 2)
    und = bd2.underlying
    y = NonequivClass.from_exponents(und, (0, 1))
    c = NonequivClass.from_exponents(und, (1, 0))
    r, f = bd2.eval_mono(bd2.mono(x=1))
    assert r == y and str(f) == "(0, 1, y)"
    r, f = bd2.eval_mono(bd2.mono(xp=1))
    assert r == y and str(f) == "(1, 0, y)"
    r, f = bd2.eval_mono(bd2.mono(divq=1))
    assert r == c * c and str(f) == "(1, -1, 0)"
    r, f = bd2.eval_mono(bd2.mono(z00=1))
    assert r == NonequivClass.unit(und) and str(f) == "(0, 1, 1)"

    q22 = load_presentation("Q22")
    assert str(q22.eval_mono(q22.mono(x=1))[1]) == "(0, 1, 0, 1)"
    r, _ = q22.eval_mono(q22.mono(cw=1))
    x1 = NonequivClass.from_exponents(q22.underlying, (1, 0))
    x2 = NonequivClass.from_exponents(q22.underlying, (0, 1))
    assert r == x1 + x2


def test_eval_mono_is_cached_and_multiplicative_on_samples():
    sp = load_presentation("Q_DD", 3)
    rng = random.Random(7)
    keys = [(0, -1), (1, 0), (-2, 1)]
    monos = [m for k in keys for m in sp.coset_basis(k)]
    for _ in range(40):
        a, b = rng.choice(monos), rng.choice(monos)
        ra, fa = sp.eval_mono(a)
        rb, fb = sp.eval_mono(b)
        rc, fc = sp.eval_mono(mono_mul(a, b, sp.letter_order))
        assert rc == ra * rb
        assert fc == fa * fb
    assert sp.eval_mono(monos[0]) is sp.eval_mono(monos[0])


def test_letter_powers_equal_repeated_multiplication():
    for name, q in LOADABLE:
        sp = load_presentation(name, q)
        for letter in sp.letters.values():
            rho = NonequivClass.unit(sp.underlying)
            fix = FixedTuple.unit(sp.fixed_rings)
            for exp in range(1, 2 * (q or 0) + 4):
                rho, fix = rho * letter.rho, fix * letter.fix
                got = sp.eval_mono(sp.mono({letter.name: exp}))
                assert got == (rho, fix), (sp.name, letter.name, exp)


def test_powers_asked_out_of_order_are_the_direct_powers():
    # a power climbs from the letter's highest cached power below it; asked
    # out of order, or far past every cached power, it is still v ** exp on
    # every ring, None exactly for the unit, and the one object of its value
    # (a zeta is a mask, and never asks for a power)
    dd16, dd1024 = (presentation._build_quadric("DD", q) for q in (16, 1024))
    top = max(((exp, name) for key in engine._sample_keys(dd1024)
               for m in dd1024.coset_basis(key) for name, exp in m
               if name not in dd1024._masks))
    assert top == (1023, "cxw")
    for sp, asked in ((dd16, [(9, "cxw"), (3, "cxw"), (20, "cxw")]), (dd1024, [top])):
        for exp, name in asked:
            sp.eval_mono(sp.mono({name: exp}))
            letter, power = sp.letters[name], sp._powers[name, exp]
            for v, p, unit in zip((letter.rho, *letter.fix.parts), power, sp._unit_classes):
                assert (unit if p is None else p) == v ** exp, (sp.name, name, exp)
                assert p is None or (p != unit and sp._shared(p) is p), (sp.name, name, exp)


def test_a_credited_letter_that_is_no_mask_fails_to_build():
    # only zetas may go negative, so only they may be credited or invertible
    bd2 = presentation._build_quadric("BD", 2)
    x = bd2.letters["x"]
    letters = {**bd2.letters, "x": Letter("x", x.grading, x.rho, x.fix, credits=("z00", "cw"))}
    with pytest.raises(AssertionError, match=re.escape(
            "Q_BD(q=2): a credited or invertible letter is no zeta: cw")):
        SpacePresentation(bd2.name, bd2.family, bd2.q, bd2.group, bd2.underlying,
                          bd2.fixed_rings, letters, fibre=bd2.fibre)
    with pytest.raises(AssertionError, match="no zeta: divq"):
        SpacePresentation(bd2.name, bd2.family, bd2.q, bd2.group, bd2.underlying,
                          bd2.fixed_rings, bd2.letters, invertible=("divq",),
                          fibre=bd2.fibre)


def test_a_power_past_the_bu1_window_names_the_power_asked_for():
    # the climb leaves the window at c^32, and so would squaring first
    # (c^16 * c^16), yet the error names the power asked for
    bu1 = presentation._build_bu1()
    bu1.eval_mono(bu1.mono(cw=31))
    for exp in (40, 33):
        m = bu1.mono(cw=exp)
        with pytest.raises(RuntimeError, match=re.escape(
                f"monomial cw^{exp} in degree {bu1.mono_grading(m)} of BU1: "
                f"poly-window: c^{exp} lies past the window c^0..c^31 of Z[c]")):
            bu1.eval_mono(m)


def _slot_degrees(sp, key, slots):
    """The flat (one, sigma) degrees of slots on the coset key, each read off
    mono_grading, checked against the sum of its letters' gradings."""
    expected = []
    for m in slots:
        g = sp.mono_grading(m)
        assert g == sum((exp * sp.letters[n].grading for n, exp in m),
                        sp.group.zero()), (sp.name, mono_str(m))
        assert g.coset_key() == key, (sp.name, mono_str(m))
        expected += (g.one, g.sigma)
    return tuple(expected)


def test_table_degrees_are_the_slots_gradings(monkeypatch):
    # coset_table and section_family read (one, sigma) and the coset key off
    # int sums over a block's lifted fibre letters; they agree with
    # mono_grading and with the sum of the letters' gradings on every space
    # but BU1, which has no tables
    for name, q in LOADABLE[1:] + [("X1q", 1024), ("Q_BD", 1024), ("Q_DD", 1024)]:
        sp = load_presentation(name, q)
        for key in engine._sample_keys(sp):
            slots, degrees = sp.coset_table(key)
            assert degrees == _slot_degrees(sp, key, slots), (sp.name, key)
            if "x" in sp.letters:
                family, degrees = sp.section_family(key)
                assert family and degrees == _slot_degrees(sp, key, family), (sp.name, key)
    # handed the fibre slots of the next offset, every slot's fibre key is
    # one more than its block's: the coset (1, 0) gets (1, 1)'s slots
    expected = mono_str(load_presentation("Q_BD", 2).coset_basis((1, 1))[0])
    x1q_slots = presentation._x1q_slots
    monkeypatch.setattr(presentation, "_x1q_slots", lambda k, q, *, has_divq: x1q_slots(
        k + 1, q, has_divq=has_divq))
    with pytest.raises(AssertionError, match=re.escape(
            f"slot {expected} lands off-coset (1, 0)")):
        presentation._build_quadric("BD", 2).coset_table((1, 0))


def test_an_inadmissible_slot_or_an_incoherent_key_fails_to_build(monkeypatch):
    bd2 = presentation._build_quadric("BD", 2)
    # z11^2 is the zeta prefix of the cosets (2, k), not of (1, 0)
    with pytest.raises(AssertionError, match=re.escape("incoherent coset key (1, 0)")):
        bd2._block((1, 0), {"z11": 2})
    # z0^-k lies on the coset, but no letter of the zeta block licenses it
    monkeypatch.setattr(presentation, "_x1q_slots", lambda k, q, *, has_divq: [{"z0": -k}])
    with pytest.raises(AssertionError, match=re.escape(
            f"inadmissible slot {mono_str(bd2.mono(z00=-1, z11=-1))} at (0, 1)")):
        bd2.coset_table((0, 1))


def test_a_fibre_letter_lifted_off_its_fibre_coset_fails_to_load():
    # a slot's fibre key, summed over its fibre letters, places it on its
    # coset only if each lifted letter's coset key is its fibre key times
    # a lifted z1's; cw lifted with z00 lands off that line
    bd2 = load_presentation("Q_BD", 2)
    build = lambda fibre: SpacePresentation(
        bd2.name, bd2.family, bd2.q, bd2.group, bd2.underlying, bd2.fixed_rings,
        bd2.letters, fibre=fibre)
    assert build(bd2.fibre).coset_table((1, 0)) == bd2.coset_table((1, 0))
    with pytest.raises(AssertionError, match=re.escape(
            "Q_BD(q=2): fibre letter cw lifts to coset key (-1, 0), off its fibre coset")):
        build({**bd2.fibre, "cw": ("cw", "z00")})


def test_a_table_grades_each_block_prefix_once(monkeypatch):
    # a count guard with no timing in it: slot degrees are sums over the
    # fibre letters lifted at load, so the sampled tables of a fresh
    # Q_DD(16) grade each block's prefix, a zeta and a section block per
    # coset, and no slot
    dd16 = presentation._build_quadric("DD", 16)
    calls = []
    int_grading = SpacePresentation._int_grading
    monkeypatch.setattr(SpacePresentation, "_int_grading",
                        lambda self, m: calls.append(m) or int_grading(self, m))
    keys = engine._sample_keys(dd16)
    slots = sum(len(dd16.coset_basis(key)) for key in keys)
    assert len(calls) == 2 * len(keys) < slots


def _naive_power(v, exp):
    """v^exp; a divided letter restricts to the unit, its own inverse, or to 0."""
    if exp >= 0:
        return v ** exp
    assert not v or v == NonequivClass.unit(v.ring)
    return v


def _naive_slot_pair(sp, m):
    """(rho, fix) of a slot as the product of its letters' powers, units
    included, on classes made afresh for this call."""
    rho = NonequivClass.unit(sp.underlying)
    fix = FixedTuple.unit(sp.fixed_rings)
    for letter_name, exp in m:
        letter = sp.letters[letter_name]
        rho = rho * _naive_power(letter.rho, exp)
        fix = fix * FixedTuple(_naive_power(v, exp) for v in letter.fix.parts)
    return rho, fix


def test_eval_mono_equals_the_naive_product_on_every_sampled_slot():
    # no unit factor is multiplied in, so compare with the product that
    # multiplies every letter power in, units included
    for name, q in LOADABLE:
        sp = load_presentation(name, q)
        if sp.family == "BU1":
            continue  # no coset tables
        for key in engine._sample_keys(sp):
            for m in sp.coset_basis(key):
                assert sp.eval_mono(m) == _naive_slot_pair(sp, m), (sp.name, mono_str(m))


def _class_value(cls):
    return id(cls.ring), frozenset(cls.coeffs.items())


EXCEPTIONAL = (("Q_BD", 16), ("Q_DD", 16), ("X1q", 16), ("Q22", None), ("Gr222", None))


@pytest.mark.parametrize("name, q", EXCEPTIONAL)
def test_equal_values_along_the_evaluation_path_are_one_object(name, q):
    sp = load_presentation(name, q)
    assert engine.verify_presentation(sp)["ok"]
    # every cached class is the one object of its value, and so is the
    # FixedTuple of every cached (rho, FixedTuple) pair
    classes, fixes = {}, {}
    for rho, fix in sp._eval_cache.values():
        for cls in (rho, *fix.parts):
            assert classes.setdefault(_class_value(cls), cls) is cls, (sp.name, str(cls))
        value = tuple(map(_class_value, (rho, *fix.parts)))
        assert fixes.setdefault(value, fix) is fix, (sp.name, str(fix))
    # every (letter, exp) pair of every table slot is one tuple per value
    letter_pairs = {}
    for slots, _ in sp._table_cache.values():
        for m in slots:
            for pair in m:
                assert letter_pairs.setdefault(pair, pair) is pair, (sp.name, pair)


@pytest.mark.parametrize("name, q", EXCEPTIONAL + (("Q_BD", 1024), ("Q_DD", 1024)))
def test_after_verify_every_sampled_slot_evaluates_to_its_naive_product(name, q):
    # the shared products are made once per pair of operands; a memo key
    # that aliased two operands would give some slot a wrong value here
    sp = load_presentation(name, q)
    assert engine.verify_presentation(sp)["ok"]
    for key in engine._sample_keys(sp):
        for m in sp.coset_basis(key):
            assert sp.eval_mono(m) == _naive_slot_pair(sp, m), (sp.name, mono_str(m))


def test_annihilator_pairs_are_declared_where_sections_split():
    assert load_presentation("Q_BD", 1).annihilator_pair == ("x", "xp")
    assert load_presentation("Q22").annihilator_pair == ("x", "x0")
    assert load_presentation("Q_DD", 2).annihilator_pair is None
    assert load_presentation("Gr222").annihilator_pair is None


def test_to_json_round_trips_through_the_schema():
    for sp in (load_presentation("Q_BD", 2), load_presentation("Q22")):
        doc = sp.to_json()
        assert doc["schema"] == "quadrics/presentation/1"
        assert doc["space"] == sp.name
        assert doc["components"] == list(sp.group.labels)
        assert [entry["name"] for entry in doc["letters"]] == list(sp.letter_order)
        json.dumps(doc)  # must be pure JSON data


def test_presentation_object_is_slotted():
    sp = load_presentation("Q_BD", 0)
    assert isinstance(sp, SpacePresentation)
    with pytest.raises(AttributeError):
        sp.scratch = 1
