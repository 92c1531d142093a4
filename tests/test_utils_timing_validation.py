"""Unit tests for repro.utils.validation."""

import pytest

from repro.utils.validation import (
    check_finite,
    check_in_range,
    check_nonnegative,
    check_positive,
    check_probability,
)


class TestValidation:
    def test_check_nonnegative(self):
        assert check_nonnegative(0.0, "v") == 0.0
        assert check_nonnegative(2.5, "v") == 2.5
        with pytest.raises(ValueError, match="v"):
            check_nonnegative(-1.0, "v")

    def test_check_positive(self):
        assert check_positive(0.1, "v") == 0.1
        with pytest.raises(ValueError):
            check_positive(0.0, "v")

    def test_check_probability(self):
        assert check_probability(0.0, "p") == 0.0
        assert check_probability(1.0, "p") == 1.0
        with pytest.raises(ValueError):
            check_probability(1.01, "p")
        with pytest.raises(ValueError):
            check_probability(-0.01, "p")

    def test_check_finite(self):
        with pytest.raises(ValueError):
            check_finite(float("inf"), "v")
        with pytest.raises(ValueError):
            check_nonnegative(float("nan"), "v")

    def test_check_in_range(self):
        assert check_in_range(0.5, "v", 0.0, 1.0) == 0.5
        with pytest.raises(ValueError):
            check_in_range(1.5, "v", 0.0, 1.0)
        with pytest.raises(ValueError):
            check_in_range(0.0, "v", 0.0, 1.0, low_inclusive=False)
        with pytest.raises(ValueError):
            check_in_range(1.0, "v", 0.0, 1.0, high_inclusive=False)
        assert check_in_range(2.0, "v", low=None, high=3.0) == 2.0
