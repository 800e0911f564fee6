"""Unit tests for measurement series."""

import pytest

from repro.analysis.metrics import CategoryCounts, increasing_slope


class TestCategoryCounts:
    def test_fractions(self):
        counts = CategoryCounts(new=2, bucket=5, long=3)
        assert counts.total == 10
        assert counts.fractions() == (0.2, 0.5, 0.3)

    def test_empty_update(self):
        assert CategoryCounts().fractions() == (0.0, 0.0, 0.0)


class TestIncreasingSlope:
    def test_convex_series(self):
        assert increasing_slope([x * x for x in range(20)])

    def test_linear_series_is_not(self):
        assert not increasing_slope(list(range(20)))

    def test_concave_series_is_not(self):
        assert not increasing_slope([x**0.5 for x in range(1, 21)])

    def test_needs_enough_points(self):
        with pytest.raises(ValueError):
            increasing_slope([1, 2, 3])
