"""Unit tests for repro.utils.maths."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.utils.maths import (
    ceil_div,
    geometric_levels,
    harmonic_number,
    log_over_loglog,
    logspace_int,
    positive_part,
    round_down_power_of_two,
    round_up_power_of_two,
    safe_log,
)


class TestHarmonicNumber:
    def test_base_cases(self):
        assert harmonic_number(0) == 0.0
        assert harmonic_number(1) == 1.0
        assert harmonic_number(2) == pytest.approx(1.5)
        assert harmonic_number(4) == pytest.approx(1 + 0.5 + 1 / 3 + 0.25)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            harmonic_number(-1)

    def test_asymptotic_branch_matches_exact_sum(self):
        n = 200
        exact = sum(1.0 / k for k in range(1, n + 1))
        assert harmonic_number(n) == pytest.approx(exact, rel=1e-10)

    @given(st.integers(min_value=1, max_value=5000))
    def test_monotone_and_close_to_log(self, n):
        value = harmonic_number(n)
        assert value >= harmonic_number(n - 1)
        assert math.log(n) < value <= math.log(n) + 1.0


class TestLogHelpers:
    def test_safe_log_clamps_below_one(self):
        assert safe_log(0.5) == 0.0
        assert safe_log(1.0) == 0.0
        assert safe_log(math.e) == pytest.approx(1.0)
        assert safe_log(8, base=2) == pytest.approx(3.0)

    def test_log_over_loglog_small_values(self):
        assert log_over_loglog(1.0) == 1.0
        assert log_over_loglog(2.0) >= 0.5

    def test_log_over_loglog_large_values(self):
        n = 1e6
        expected = math.log(n) / math.log(math.log(n))
        assert log_over_loglog(n) == pytest.approx(expected)

    @given(st.floats(min_value=2.0, max_value=1e9))
    def test_log_over_loglog_positive_and_below_log(self, n):
        value = log_over_loglog(n)
        assert value > 0
        assert value <= max(math.log(n), 1.0) + 1e-9


class TestPositivePart:
    def test_scalar(self):
        assert positive_part(3.0) == 3.0
        assert positive_part(-2.0) == 0.0
        assert positive_part(0.0) == 0.0

    def test_array(self):
        result = positive_part(np.array([-1.0, 0.0, 2.5]))
        np.testing.assert_allclose(result, [0.0, 0.0, 2.5])


class TestPowerOfTwoRounding:
    @pytest.mark.parametrize(
        "value,expected",
        [(1.0, 1.0), (1.5, 1.0), (2.0, 2.0), (3.99, 2.0), (4.0, 4.0), (0.75, 0.5), (0.5, 0.5)],
    )
    def test_round_down(self, value, expected):
        assert round_down_power_of_two(value) == expected

    @pytest.mark.parametrize(
        "value,expected",
        [(1.0, 1.0), (1.5, 2.0), (2.0, 2.0), (4.01, 8.0), (0.3, 0.5)],
    )
    def test_round_up(self, value, expected):
        assert round_up_power_of_two(value) == expected

    def test_zero_maps_to_zero(self):
        assert round_down_power_of_two(0.0) == 0.0
        assert round_up_power_of_two(0.0) == 0.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            round_down_power_of_two(-1.0)
        with pytest.raises(ValueError):
            round_up_power_of_two(-0.1)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), [1.0, -2.0], [0.5, np.inf]])
    def test_non_finite_and_negative_entries_rejected(self, value):
        with pytest.raises(ValueError):
            round_down_power_of_two(value)
        with pytest.raises(ValueError):
            round_up_power_of_two(value)

    @given(st.floats(min_value=1e-6, max_value=1e12))
    def test_round_down_is_power_of_two_and_below(self, value):
        rounded = round_down_power_of_two(value)
        assert rounded <= value < 2 * rounded
        assert rounded == 2.0 ** round(math.log2(rounded))

    @given(st.floats(min_value=1e-6, max_value=1e12))
    def test_round_up_is_power_of_two_and_above(self, value):
        rounded = round_up_power_of_two(value)
        assert rounded / 2 < value <= rounded
        assert rounded == 2.0 ** round(math.log2(rounded))

    def test_exact_next_to_powers_of_two(self):
        # The neighbours of 2**k round past it, not onto it (a log2 rounds
        # them to k and so returns 2**k on the wrong side of the input).
        for k in range(-20, 60):
            power = 2.0**k
            assert round_down_power_of_two(math.nextafter(power, 0.0)) == 2.0 ** (k - 1), k
            assert round_up_power_of_two(math.nextafter(power, math.inf)) == 2.0 ** (k + 1), k

    def test_arrays_round_elementwise(self):
        values = np.array([0.0, 0.3, 0.5, 0.75, 1.0, 1.5, 3.99, 4.0, 4.01, 0.0, 1e12])
        for rounding in (round_down_power_of_two, round_up_power_of_two):
            rounded = rounding(values)
            assert isinstance(rounded, np.ndarray) and rounded.dtype == np.float64
            assert rounded.tolist() == [rounding(float(v)) for v in values]
            assert type(rounding(3.0)) is float


class TestCeilDiv:
    def test_values(self):
        assert ceil_div(0, 3) == 0
        assert ceil_div(1, 3) == 1
        assert ceil_div(3, 3) == 1
        assert ceil_div(4, 3) == 2

    def test_invalid(self):
        with pytest.raises(ValueError):
            ceil_div(1, 0)
        with pytest.raises(ValueError):
            ceil_div(-1, 2)


class TestGrids:
    def test_geometric_levels_cover_range(self):
        levels = geometric_levels(1.0, 10.0)
        assert levels[0] == 1.0
        assert levels[-1] >= 10.0
        ratios = levels[1:] / levels[:-1]
        np.testing.assert_allclose(ratios, 2.0)

    def test_geometric_levels_validation(self):
        with pytest.raises(ValueError):
            geometric_levels(0.0, 1.0)
        with pytest.raises(ValueError):
            geometric_levels(2.0, 1.0)
        with pytest.raises(ValueError):
            geometric_levels(1.0, 2.0, factor=1.0)

    def test_logspace_int(self):
        values = logspace_int(10, 1000, 3)
        assert values[0] >= 10 and values[-1] == 1000
        assert values == sorted(set(values))

    def test_logspace_int_single(self):
        assert logspace_int(5, 500, 1) == [500]

    def test_logspace_int_validation(self):
        with pytest.raises(ValueError):
            logspace_int(0, 10, 2)
        with pytest.raises(ValueError):
            logspace_int(10, 5, 2)
        with pytest.raises(ValueError):
            logspace_int(1, 10, 0)
