import math
import random
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from loopatlas import cartan, criterion, roots
from loopatlas.errors import InvalidCartanMatrixError, InvalidSubsetError, NumberTypeError, RegionError

ALL_AFFINE = cartan.all_types(max_rank=8, affine=True)
SMALL_AFFINE = [cm.label for cm in cartan.all_types(max_rank=4, affine=True)]

rationals = st.fractions(min_value=-40, max_value=10, max_denominator=64)


def _cm(label):
    return cartan.parse_type(label)


def _uniform(cm, x):
    return criterion.functional([x] * cm.size)


# --- the distinguished shift ------------------------------------------------


def test_weyl_vector_central_value_is_g():
    """The all-ones functional pairs with the central element to g itself."""
    for cm in ALL_AFFINE:
        rho = criterion.weyl_vector(cm)
        assert criterion.central_value(cm, rho) == roots.dual_coxeter(cm)


def test_weyl_vector_needs_affine_ambient():
    with pytest.raises(InvalidCartanMatrixError):
        criterion.weyl_vector(_cm("A2"))


def test_shift_by_weyl_vector():
    f = criterion.functional([-3, -4, Fraction(-7, 2)], d_value=5)
    shifted = criterion.shift_by_weyl_vector(f)
    assert shifted.values == (-2, -3, Fraction(-5, 2))
    assert shifted.d_value == 5


# --- central value ----------------------------------------------------------


def test_central_value_e6_affine_uniform():
    cm = _cm("E6affine")
    assert criterion.central_value(cm, _uniform(cm, -3)) == -36
    assert roots.dual_coxeter(cm) == 12


def test_central_value_weights_are_the_central_element():
    cm = _cm("G2affine")
    # weights (1, 2, 1): pick off each coordinate
    assert criterion.central_value(cm, criterion.functional([1, 0, 0])) == 1
    assert criterion.central_value(cm, criterion.functional([0, 1, 0])) == 2
    assert criterion.central_value(cm, criterion.functional([0, 0, 1])) == 1


def test_central_value_validation():
    cm = _cm("A1affine")
    with pytest.raises(InvalidSubsetError):
        criterion.central_value(cm, criterion.functional([1]))
    with pytest.raises(InvalidCartanMatrixError):
        criterion.central_value(_cm("A2"), criterion.functional([1, 2]))
    with pytest.raises(TypeError):
        criterion.functional(["x", 1])
    with pytest.raises(TypeError):
        criterion.functional([True, 1])
    for bad in (["x", 1], [True, 1], [None, 1]):
        with pytest.raises(NumberTypeError, match="is not a number"):
            criterion.functional(bad)
    # a d value is a number too; "x" used to be accepted and then fail JSON
    for bad in ("x", True, [1]):
        with pytest.raises(NumberTypeError, match="d value .* is not a number"):
            criterion.functional([1, 2], d_value=bad)
    assert criterion.functional([1, 2], d_value=None).d_value is None


@pytest.mark.parametrize("bad", [[1, 2, 3], (1, 2, 3), None, "abc"])
def test_entry_points_take_only_linear_functionals(bad):
    # a plain list used to raise a raw AttributeError
    cm = _cm("A2affine")
    calls = [
        lambda: criterion.central_value(cm, bad),
        lambda: criterion.godement_cuspidal(cm, bad),
        lambda: criterion.implication_check(cm, bad),
        lambda: criterion.godement_minimal(bad),
        lambda: criterion.shift_by_weyl_vector(bad),
    ]
    for call in calls:
        with pytest.raises(NumberTypeError, match="is not a LinearFunctional"):
            call()


def test_central_value_overflow_is_a_region_error():
    cm = _cm("A2affine")
    for values in ([10**400, 1.0, 0], [1e308, 1e308, 1e308], [1e308j, 1e308j, 0]):
        f = criterion.functional(values)
        for call in (criterion.central_value, criterion.godement_cuspidal):
            with pytest.raises(RegionError, match="central value overflows a float"):
                call(cm, f)
    with pytest.raises(RegionError, match="central value overflows a float"):
        criterion.implication_check(cm, criterion.functional([-(10**400), -3.0, -3]))
    # exact values never overflow
    assert criterion.central_value(cm, criterion.functional([10**400, 1, 0])) == 10**400 + 1


def test_central_value_keeps_exactness():
    cm = _cm("A2affine")
    exact = criterion.central_value(cm, criterion.functional([Fraction(-5, 2)] * 3))
    assert exact == Fraction(-15, 2)
    assert isinstance(exact, Fraction)
    mixed = criterion.central_value(cm, criterion.functional([-2.5] * 3))
    assert isinstance(mixed, float)


def test_exact_central_value_is_the_term_by_term_sum():
    """Over one common denominator the sum keeps the value and the type
    of the sum taken term by term: an int unless a value is a Fraction."""
    rng = random.Random(14)
    draws = [
        lambda: rng.randint(-50, 50),
        lambda: Fraction(rng.randint(-50, 50), rng.randint(1, 12)),
        lambda: rng.choice((1, -1)) * 10**400 + rng.randint(-9, 9),
        lambda: Fraction(10**400 + rng.randint(0, 9), rng.randint(1, 10**200)),
    ]
    for cm in cartan.all_types(8):
        weights = roots.central_coroot(cm)
        for _ in range(25):
            values = [rng.choice(draws)() for _ in range(cm.size)]
            if rng.random() < 0.3:
                values = [rng.choice(draws[::2])() for _ in range(cm.size)]
            want = sum(w * x for w, x in zip(weights, values))
            got = criterion.central_value(cm, criterion.functional(values))
            assert got == want and type(got) is type(want), (cm.label, values)


# --- minimality -------------------------------------------------------------


def test_godement_minimal_is_strict():
    assert criterion.godement_minimal(criterion.functional([-2.0001, -3]))
    assert not criterion.godement_minimal(criterion.functional([-2, -3]))
    assert criterion.godement_minimal(criterion.functional([-3 + 100j, -4]))
    assert not criterion.godement_minimal(criterion.functional([-1.5, -5]))


@given(st.sampled_from(SMALL_AFFINE), st.data())
def test_minimal_implies_deep_central_value(label, data):
    """Comark weights are positive and sum with the attached node to g, so
    everywhere-minimal parameters always land strictly below -2g."""
    cm = _cm(label)
    values = data.draw(
        st.lists(rationals, min_size=cm.size, max_size=cm.size)
    )
    f = criterion.functional(values)
    assert criterion.implication_check(cm, f)
    if criterion.godement_minimal(f):
        g = roots.dual_coxeter(cm)
        assert criterion.central_value(cm, f) < -2 * g


# --- region classification --------------------------------------------------


def test_regions_a1_affine_exact():
    cm = _cm("A1affine")  # g = 2
    cases = [
        (Fraction(-5, 2), criterion.REGION_CONVERGENT),  # central -5 < -4
        (-2, criterion.REGION_CONTINUED),  # central -4, the sharp -2g edge
        (Fraction(-3, 2), criterion.REGION_CONTINUED),  # central -3
        (-1, criterion.REGION_BOUNDARY),  # central -2 = -g
        (Fraction(-1, 2), criterion.REGION_OUTSIDE),  # central -1
        (0, criterion.REGION_OUTSIDE),
    ]
    for value, region in cases:
        report = criterion.godement_cuspidal(cm, _uniform(cm, value))
        assert report.region == region, value
        assert report.g == 2


def test_region_report_fields():
    cm = _cm("E6affine")
    report = criterion.godement_cuspidal(cm, _uniform(cm, -3))
    assert report.region == criterion.REGION_CONVERGENT
    assert report.central == -36
    assert report.real_part == -36
    assert report.g == 12


def test_boundary_tolerance_applies_to_floats_only():
    cm = _cm("A1affine")
    # well inside the float tolerance around -g = -2
    nudged = criterion.godement_cuspidal(cm, _uniform(cm, -1.0 + 2e-13))
    assert nudged.region == criterion.REGION_BOUNDARY
    # outside the tolerance
    off = criterion.godement_cuspidal(cm, _uniform(cm, -1.0 - 1e-6))
    assert off.region == criterion.REGION_CONTINUED
    # the same nudge as an exact rational is not on the locus
    exact = _uniform(cm, Fraction(-1, 1) + Fraction(1, 10**13))
    assert criterion.godement_cuspidal(cm, exact).region == criterion.REGION_OUTSIDE
    exact_low = _uniform(cm, Fraction(-1, 1) - Fraction(1, 10**13))
    assert criterion.godement_cuspidal(cm, exact_low).region == criterion.REGION_CONTINUED


def test_complex_parameters_classify_by_real_part():
    cm = _cm("A2affine")  # g = 3
    report = criterion.godement_cuspidal(cm, _uniform(cm, -3 + 50j))
    assert report.region == criterion.REGION_CONVERGENT
    assert report.real_part == -9.0
    on_locus = criterion.godement_cuspidal(cm, _uniform(cm, -1 + 2j))
    assert on_locus.region == criterion.REGION_BOUNDARY


@given(st.sampled_from(SMALL_AFFINE), st.data())
def test_regions_partition(label, data):
    cm = _cm(label)
    values = data.draw(st.lists(rationals, min_size=cm.size, max_size=cm.size))
    report = criterion.godement_cuspidal(cm, criterion.functional(values))
    g = roots.dual_coxeter(cm)
    c = report.central
    assert report.real_part == c
    if report.region == criterion.REGION_CONVERGENT:
        assert c < -2 * g
    elif report.region == criterion.REGION_CONTINUED:
        assert -2 * g <= c < -g
    elif report.region == criterion.REGION_BOUNDARY:
        assert c == -g
    else:
        assert c > -g


@pytest.mark.parametrize(
    "value", [math.nan, -math.inf, math.inf, complex(-3, math.nan), complex(-math.inf, 0)]
)
def test_non_finite_parameters_are_rejected(value):
    # an all-NaN parameter used to classify as "outside" and an all -inf
    # one as "convergent"
    cm = _cm("A2affine")
    f = _uniform(cm, value)
    with pytest.raises(RegionError, match="not finite"):
        criterion.godement_cuspidal(cm, f)
    with pytest.raises(RegionError, match="not finite"):
        criterion.central_value(cm, criterion.functional([-1, -1, value]))


@pytest.mark.parametrize("value", [math.nan, -math.inf, math.inf, complex(-3, math.nan)])
def test_godement_minimal_rejects_non_finite_values(value):
    # all -inf used to give True and all NaN False, so the implication
    # check passed an all-NaN parameter
    cm = _cm("A2affine")
    f = _uniform(cm, value)
    with pytest.raises(RegionError, match="not finite"):
        criterion.godement_minimal(f)
    with pytest.raises(RegionError, match="not finite"):
        criterion.implication_check(cm, f)


def test_implication_check_reads_its_inputs():
    # a parameter that is not everywhere minimal used to give True unread
    f = criterion.functional([0, 0, 0])
    with pytest.raises(InvalidSubsetError, match="ambient 5 is not a CartanMatrix"):
        criterion.implication_check(5, f)
    with pytest.raises(InvalidCartanMatrixError, match=re.escape("ambient CartanMatrix(A2) is not affine")):
        criterion.implication_check(_cm("A2"), f)
    with pytest.raises(InvalidSubsetError, match="functional has 3 values, ambient has 2 coroots"):
        criterion.implication_check(_cm("A1affine"), f)
    assert criterion.implication_check(_cm("A2affine"), f)


# --- reconstruction from a central target -----------------------------------


def test_extend_from_central_integer_target():
    cm = _cm("E6affine")
    f = criterion.extend_from_central(cm, -36)
    assert f.values == (Fraction(-3, 1),) * 7
    assert criterion.central_value(cm, f) == -36
    assert criterion.godement_minimal(f)


def test_extend_from_central_rational_and_float():
    cm = _cm("A1affine")
    f = criterion.extend_from_central(cm, Fraction(-9, 2))
    assert criterion.central_value(cm, f) == Fraction(-9, 2)
    g = criterion.extend_from_central(cm, -4.625)
    assert abs(criterion.central_value(cm, g) + 4.625) <= 1e-12 * 4.625


def test_extend_from_central_complex_target():
    cm = _cm("A1affine")
    f = criterion.extend_from_central(cm, -10 + 3j)
    assert criterion.central_value(cm, f) == -10 + 3j
    assert criterion.godement_minimal(f)


def test_extend_from_central_rejects_shallow_targets():
    cm = _cm("A1affine")  # -2g = -4
    for target in (-4, Fraction(-4, 1), -4.0, -3.9, 0, 5):
        with pytest.raises(RegionError):
            criterion.extend_from_central(cm, target)
    criterion.extend_from_central(cm, Fraction(-4000001, 1000000))


def test_extend_from_central_needs_affine_ambient():
    # over A2 it used to return (-100/3, -100/3), a functional no other entry point takes
    with pytest.raises(InvalidCartanMatrixError, match=re.escape("ambient CartanMatrix(A2) is not affine")):
        criterion.extend_from_central(_cm("A2"), -100)


def test_extend_from_central_rejects_non_numbers_and_non_finite_targets():
    cm = _cm("A2affine")
    for bad in ("x", None, True, [-7]):
        with pytest.raises(NumberTypeError, match="central target .* is not a number"):
            criterion.extend_from_central(cm, bad)
    for bad in (complex(-math.inf, 0), -math.inf, math.nan, complex(-7, math.nan)):
        with pytest.raises(RegionError, match="central target .* is not finite"):
            criterion.extend_from_central(cm, bad)


@given(st.sampled_from(SMALL_AFFINE), rationals)
def test_extend_round_trip(label, offset):
    cm = _cm(label)
    g = roots.dual_coxeter(cm)
    target = -2 * g - Fraction(1, 3) - abs(offset)
    f = criterion.extend_from_central(cm, target)
    assert criterion.central_value(cm, f) == target
    assert criterion.godement_minimal(f)
    assert criterion.godement_cuspidal(cm, f).region == criterion.REGION_CONVERGENT


# --- dominance --------------------------------------------------------------


def test_dominant_integral():
    cm = _cm("A2affine")
    assert criterion.dominant_integral(cm, (1, 0, 0))
    assert criterion.dominant_integral(cm, (2, 3, 1))
    assert not criterion.dominant_integral(cm, (0, 0, 0))
    assert not criterion.dominant_integral(cm, (1, -1, 0))
    # coordinates follow the integer rule of weyl.act: numpy integers in,
    # floats, bools and strings out
    assert criterion.dominant_integral(cm, (np.int64(1), 0, 0))
    assert not criterion.dominant_integral(cm, (np.int64(-1), 0, 0))
    for bad in (1.0, True, "1"):
        with pytest.raises(InvalidSubsetError, match=re.escape(f"coordinate {bad!r} is not an integer")):
            criterion.dominant_integral(cm, (bad, 0, 0))
    with pytest.raises(InvalidSubsetError):
        criterion.dominant_integral(cm, (1, 0))


# --- serialization ----------------------------------------------------------


def test_functional_json_round_trip():
    f = criterion.functional([-3, -2.5, -1 + 2j], d_value=4)
    obj = criterion.functional_to_json(f)
    assert obj == {"values": [-3, -2.5, [-1.0, 2.0]], "d_value": 4}
    back = criterion.functional_from_json(obj)
    assert back.values == (-3, -2.5, (-1 + 2j))
    assert back.d_value == 4


def test_functional_json_without_d_value():
    f = criterion.functional([Fraction(-1, 2), -2])
    obj = criterion.functional_to_json(f)
    assert obj == {"values": [-0.5, -2]}
    assert criterion.functional_from_json([-0.5, -2]).values == (-0.5, -2)


@pytest.mark.parametrize("values", [3, None, 2.5])
def test_functional_values_must_be_a_sequence(values):
    # tuple(values) used to raise a raw TypeError, and so did the record
    for make in (criterion.functional, criterion.LinearFunctional):
        with pytest.raises(InvalidSubsetError, match="not a sequence"):
            make(values)


def test_linear_functional_reads_its_values_once_as_a_tuple():
    # a list was kept (unhashable, unequal to the tuple form) and a
    # generator was exhausted by the check
    f = criterion.LinearFunctional([-3, -3])
    assert f == criterion.functional((-3, -3)) and hash(f) == hash(criterion.functional((-3, -3)))
    assert criterion.LinearFunctional(x for x in (-3, -3)).values == (-3, -3)


def test_linear_functional_size_counts_its_values():
    assert criterion.functional(x for x in (-3, 0.5, 2)).size == 3
    assert criterion.LinearFunctional((), 1).size == 0


@pytest.mark.parametrize(
    "obj, match",
    [
        ({"d_value": 1}, "no \"values\""),  # raw KeyError
        ({}, "no \"values\""),
        (5, "does not decode"),  # raw TypeError
        (None, "does not decode"),
        ({"values": 5}, "does not decode"),
        ({"values": [1, 2], "d_value": "x"}, "does not decode"),
        ([["a", 1]], "does not decode"),  # raw ValueError
        ([[10**400, 1]], "does not decode"),  # raw OverflowError
        (["1"], "does not decode"),
        ([["1", 0]], "does not decode"),  # a pair's parts were read with float()
        ([[True, 0]], "does not decode"),
    ],
)
def test_functional_from_json_rejects_malformed_objects(obj, match):
    with pytest.raises(NumberTypeError, match=match):
        criterion.functional_from_json(obj)


def test_region_json():
    cm = _cm("E6affine")
    report = criterion.godement_cuspidal(cm, _uniform(cm, -3))
    assert criterion.region_to_json(report) == {
        "region": "convergent",
        "nu_c": -36,
        "g": 12,
    }


def test_region_json_complex_central():
    cm = _cm("A1affine")
    report = criterion.godement_cuspidal(cm, _uniform(cm, -3 + 1j))
    obj = criterion.region_to_json(report)
    assert obj["nu_c"] == [-6.0, 2.0]
    assert obj["region"] == "convergent"
