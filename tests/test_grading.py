"""Grading groups: canonical forms, fixed profiles, coset keys."""

from hypothesis import given, strategies as st

from quadrics.grading import GradingGroup

ODD = GradingGroup(["00", "11", "1"])    # odd quadric: two points and a subquadric
SPLIT = GradingGroup(["00", "11", "01", "10"])  # the four-point quadric


def test_relation_eliminates_last_label():
    # W_last = 2s - 2 - (other W's)
    w1 = ODD.omega("1")
    assert (w1.one, w1.sigma, w1.omega) == (-2, 2, (-1, -1, 0))
    w10 = SPLIT.omega("10")
    assert (w10.one, w10.sigma, w10.omega) == (-2, 2, (-1, -1, -1, 0))
    total = ODD.omega("00") + ODD.omega("11") + ODD.omega("1")
    assert total == ODD.element(one=-2, sigma=2)


def test_canonicalize_mixed_sum():
    # W_00 + W_11 + (2 + W_01 + W_10) = 2s on the four-point quadric
    alpha = SPLIT.element(one=2, omega={"00": 1, "11": 1, "01": 1, "10": 1})
    assert alpha == SPLIT.element(sigma=2)


def test_fixed_degrees_of_omega():
    # W_c restricts to 2s - 2 on component c (fixed degree -2) and 0 elsewhere
    w00 = ODD.omega("00")
    assert w00.fixed_degree("00") == -2
    assert w00.fixed_degree("11") == 0
    assert w00.fixed_degree("1") == 0
    w1 = ODD.omega("1")
    assert w1.fixed_degree("1") == -2
    assert w1.fixed_degree("00") == 0
    assert w1.fixed_profile() == (("00", 0), ("11", 0), ("1", -2))


def test_underlying_forgets_omegas():
    alpha = ODD.element(one=3, sigma=2, omega={"00": 5, "1": -1})
    assert alpha.underlying_dim() == 5


def test_coset_key_constant_on_ro_c2_translates():
    alpha = ODD.element(one=4, omega={"11": 2, "1": 1})
    shift = ODD.element(one=-2, sigma=3)
    assert (alpha + shift).coset_key() == alpha.coset_key()
    # translating by W00 + W11 fixes the diagonal difference, drops the rest
    diag = ODD.element(omega={"00": 1, "11": 1})
    key = alpha.coset_key()
    assert (alpha + diag).coset_key() == (key[0], key[1] - 1)


grading_ints = st.integers(-8, 8)


@st.composite
def elements(draw, group):
    one = draw(grading_ints)
    sigma = draw(grading_ints)
    omega = {label: draw(grading_ints) for label in group.labels}
    return group.element(one, sigma, omega)


@given(elements(ODD), elements(ODD))
def test_profiles_additive(a, b):
    s = a + b
    assert s.underlying_dim() == a.underlying_dim() + b.underlying_dim()
    for (la, da), (_, db), (_, ds) in zip(a.fixed_profile(), b.fixed_profile(),
                                          s.fixed_profile()):
        assert ds == da + db


def test_render_ascii():
    assert str(ODD.zero()) == "0"
    assert str(ODD.element(one=4, sigma=-1, omega={"00": 2, "11": -1})) == \
        "4 - s + 2W00 - W11"
    assert str(ODD.element(omega={"1": 1})) == "-2 + 2s - W00 - W11"