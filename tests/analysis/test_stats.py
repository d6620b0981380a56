"""Tests for the experiment statistics helpers."""

import math

import pytest

from repro.analysis import approximation_ratio, growth_exponent, pearson


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
