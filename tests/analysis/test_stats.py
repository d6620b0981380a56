"""Tests for the experiment statistics helpers."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import (
    approximation_ratio,
    growth_exponent,
    pearson,
    summarize,
)


class TestSummarize:
    def test_basic(self):
        s = summarize([1, 2, 3, 4])
        assert s.mean == 2.5
        assert s.minimum == 1 and s.maximum == 4
        assert s.n == 4

    def test_single_value_has_zero_ci(self):
        s = summarize([5])
        assert s.ci95 == 0.0
        assert s.std == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])

    @given(st.lists(st.floats(min_value=-100, max_value=100), min_size=1,
                    max_size=30))
    @settings(max_examples=30, deadline=None)
    def test_mean_within_bounds(self, values):
        s = summarize(values)
        assert s.minimum - 1e-9 <= s.mean <= s.maximum + 1e-9


class TestApproximationRatio:
    def test_ratio_is_opt_over_found(self):
        assert approximation_ratio(10, 5) == 2.0

    def test_perfect_solution(self):
        assert approximation_ratio(7, 7) == 1.0

    def test_empty_optimum(self):
        assert approximation_ratio(0, 0) == 1.0

    def test_zero_found_is_infinite(self):
        assert math.isinf(approximation_ratio(5, 0))


class TestRatesAndShapes:
    def test_growth_exponent_linear(self):
        xs = [1, 2, 4, 8, 16]
        ys = [3 * x for x in xs]
        assert growth_exponent(xs, ys) == pytest.approx(1.0)

    def test_growth_exponent_quadratic(self):
        xs = [1, 2, 4, 8]
        ys = [x * x for x in xs]
        assert growth_exponent(xs, ys) == pytest.approx(2.0)

    def test_growth_exponent_flat(self):
        assert growth_exponent([1, 2, 4], [5, 5, 5]) == pytest.approx(0.0)

    def test_pearson_perfect(self):
        assert pearson([1, 2, 3], [2, 4, 6]) == pytest.approx(1.0)

    def test_pearson_inverse(self):
        assert pearson([1, 2, 3], [6, 4, 2]) == pytest.approx(-1.0)

    def test_pearson_needs_two_points(self):
        with pytest.raises(ValueError):
            pearson([1], [2])
