import math
from fractions import Fraction

import pytest

from graphconvex import INF, approx_eq, approx_le, exact_div, scaled
from graphconvex.extreal import check_value, check_values, exact_add, report_value


def test_approx_eq_is_exact_on_ints():
    assert approx_eq(3, 3)
    assert not approx_eq(3, 4)
    assert not approx_eq(0, 1)
    # the default band (1e-9 relative) can never bridge an integer gap
    assert not approx_eq(10**12, 10**12 + 1, tol=1e-13)
    # ... nor can the band of any tolerance at any magnitude
    assert not approx_eq(10**10, 10**10 - 1)
    assert not approx_le(2 * 10**10, 2 * 10**10 - 2)
    assert not approx_eq(Fraction(1, 3), Fraction(1, 3) + Fraction(1, 10**12))
    # a float side still gets the band
    assert approx_eq(float(10**10), 10**10 - 1)


def test_approx_eq_relative_band():
    assert approx_eq(1.0, 1.0 + 1e-12)
    assert approx_eq(1e6, 1e6 * (1 + 1e-10))
    assert not approx_eq(1e6, 1e6 * (1 + 1e-6))
    # small values are compared against an absolute floor of tol * 1
    assert approx_eq(0.0, 1e-12)
    assert not approx_eq(0.0, 1e-6)


def test_approx_eq_infinities():
    assert approx_eq(INF, INF)
    assert not approx_eq(INF, 1e308)
    assert not approx_eq(1.0, INF)


def test_approx_eq_decides_ints_beyond_float_range_exactly():
    import sys

    big, top = 10**400, sys.float_info.max
    assert not approx_eq(big, 0.5) and not approx_eq(0.5, big)
    assert not approx_eq(big, INF) and not approx_eq(INF, big)
    # 2**1024 is one float spacing above the largest float: inside the band
    assert approx_eq(2**1024, top) and approx_eq(top, 2**1024)
    assert not approx_eq(2**1024, top, tol=1e-17)
    assert not approx_eq(Fraction(big, 3), 1e300)
    assert approx_le(0.5, big) and not approx_le(big, 0.5)
    assert approx_le(big, INF) and not approx_le(INF, big)


def test_approx_le():
    assert approx_le(1, 2)
    assert approx_le(2, 2)
    assert not approx_le(2, 1)
    # overshoot inside the tolerance band still passes
    assert approx_le(1.0 + 1e-12, 1.0)
    assert not approx_le(1.0 + 1e-6, 1.0)
    assert approx_le(5, INF)
    assert approx_le(INF, INF)
    assert not approx_le(INF, 5)


def test_check_value_accepts_reals_and_plus_inf():
    for v in (0, -3, 2.5, INF, Fraction(1, 3), True):
        assert check_value(v) is v


@pytest.mark.parametrize("bad", [math.nan, -INF, "1", None, 1j])
def test_check_value_rejects_nan_minus_inf_and_non_numbers(bad):
    with pytest.raises(ValueError):
        check_value(bad)


def test_check_values_accepts_reals_and_plus_inf():
    check_values([0, -3, 10**100, -(10**100)])  # all plain ints
    check_values([True, False, 2])
    check_values([Fraction(1, 3), 1, 2.5, INF])
    check_values([])


def test_check_values_accepts_mixed_ints_and_floats():
    check_values([1, 0.5, -2, INF, 2.5e300])
    check_values([10**400, 0.1, -(10**400), INF])  # compared with -inf exactly
    check_values({"a": True, "b": 0.5, "c": Fraction(1, 3)}.values())


@pytest.mark.parametrize(
    "values, first_bad",
    [
        ([1, 0.5, math.nan, -INF], math.nan),
        ([0.5, 2, -INF, "1"], -INF),
        ([1, 10**400, 0.25, "1", None], "1"),
        ([2.5, None, math.nan], None),
        ([Fraction(1, 3), 1.5, -INF, math.nan], -INF),
    ],
    ids=repr,
)
def test_check_values_names_the_first_bad_value(values, first_bad):
    with pytest.raises(ValueError) as expected:
        check_value(first_bad)
    with pytest.raises(ValueError) as got:
        check_values(values)
    assert str(got.value) == str(expected.value)


@pytest.mark.parametrize("bad", [math.nan, -INF, "1", None, 1j])
def test_check_values_rejects_a_bad_value_among_ints(bad):
    for position in (0, 2, 4):
        values = [1, 2, 3, 4]
        values.insert(position, bad)
        with pytest.raises(ValueError):
            check_values(values)


def test_scaled_zero_times_inf_is_zero():
    assert scaled(0, INF) == 0
    assert scaled(0, 5) == 0
    assert scaled(2, INF) == INF
    assert scaled(2, 3) == 6
    assert scaled(0.5, 4) == 2.0


def test_exact_div_stays_integer_when_possible():
    q = exact_div(4, 2)
    assert q == 2 and isinstance(q, int)
    q = exact_div(-6, 3)
    assert q == -2 and isinstance(q, int)
    assert exact_div(1, 3) == 1 / 3
    assert exact_div(3.0, 2) == 1.5
    assert math.isclose(exact_div(7, 2), 3.5)


def test_exact_div_keeps_quotients_beyond_float_range_exact():
    big = 10**400
    q = exact_div(2 * big + 1, 2)
    assert q == Fraction(2 * big + 1, 2) and isinstance(q, Fraction)
    assert exact_div(2 * big, 2) == big  # exact division stays an int
    assert exact_div(big + 1, big) == 1.0  # a quotient in float range stays a float


def test_arithmetic_with_floats_stays_exact_beyond_float_range():
    # float arithmetic would raise OverflowError on each of these
    big = 10**400
    total = exact_add(big, 0.5)
    assert total == Fraction(2 * big + 1, 2) and isinstance(total, Fraction)
    assert exact_add(-big, 0.25) == Fraction(-4 * big + 1, 4)
    assert exact_add(total, 1.5) == big + 2  # a Fraction plus a float, also exact
    assert exact_add(big, INF) == INF and exact_add(INF, -big) == INF
    assert exact_add(1, 0.5) == 1.5 and exact_add(2, 3) == 5
    product = scaled(1.5, big)
    assert product == Fraction(3 * big, 2) and isinstance(product, Fraction)
    assert scaled(big, INF) == INF
    assert exact_div(big, 0.5) == 2 * big
    assert exact_div(Fraction(3 * big, 2), 1.5) == big


def test_report_value_spells_inf_and_fractions_as_strings():
    assert report_value(INF) == "inf"
    assert report_value(Fraction(-7, 2)) == "-7/2"
    assert report_value(Fraction(4, 1)) == "4/1"
    assert report_value(3) == 3 and report_value(1.5) == 1.5
