"""The statistics of ``tools/perfcompare.py``, on hand-computed cases.

Nothing here times anything: the runs are made-up metric values.
"""

import importlib.util
import math
import os

import pytest

_PATH = os.path.join(os.path.dirname(os.path.dirname(__file__)), "tools",
                     "perfcompare.py")
_spec = importlib.util.spec_from_file_location("perfcompare", _PATH)
perfcompare = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(perfcompare)

#: Ten base runs: quartiles 102.25 / 104.5 / 106.75, so the IQR is 4.5.
BASE = [100.0 + i for i in range(10)]


class TestQuartiles:
    def test_odd_count(self):
        assert perfcompare.quartiles([5, 1, 3, 2, 4]) == (2, 3, 4)

    def test_even_count_interpolates(self):
        assert perfcompare.quartiles([1, 2, 3, 4]) == (1.75, 2.5, 3.25)

    def test_ten_runs(self):
        assert perfcompare.quartiles(BASE) == (102.25, 104.5, 106.75)

    def test_one_run(self):
        assert perfcompare.quartiles([7]) == (7, 7, 7)

    def test_relative_spread(self):
        assert perfcompare.relative_spread([1, 2, 3, 4, 5]) == 2 / 3
        assert perfcompare.relative_spread([4, 4, 4]) == 0.0
        assert perfcompare.relative_spread([0, 0, 0]) == 0.0
        assert math.isinf(perfcompare.relative_spread([-1, 0, 1]))


class TestGainAndWins:
    def test_gain_follows_the_better_direction(self):
        assert perfcompare.gain(10, 8, "lower") == 2
        assert perfcompare.gain(10, 8, "higher") == -2

    def test_ties_are_not_wins(self):
        assert perfcompare.wins([10, 10, 10], [9, 10, 11], "lower") == 1
        assert perfcompare.wins([10, 10, 10], [9, 10, 11], "higher") == 1


class TestVerdict:
    def test_improved_in_every_pair_beyond_the_iqr(self):
        new = [b - 10 for b in BASE]
        assert perfcompare.verdict(BASE, new, "lower", 0.25) == "improved"

    def test_eight_wins_of_ten_is_noise(self):
        # The median moves by 10 (> IQR 4.5), but only 8 pairs win.
        new = [b - 10 for b in BASE[:8]] + [b + 1 for b in BASE[8:]]
        assert perfcompare.wins(BASE, new, "lower") == 8
        assert perfcompare.verdict(BASE, new, "lower", 0.25) == "noise"

    def test_nine_wins_of_ten_is_enough(self):
        new = [b - 10 for b in BASE[:9]] + [BASE[9] + 1]
        assert perfcompare.verdict(BASE, new, "lower", 0.25) == "improved"

    def test_every_pair_within_the_iqr_is_noise(self):
        new = [b - 4 for b in BASE]  # a gain of 4 < IQR 4.5
        assert perfcompare.verdict(BASE, new, "lower", 0.25) == "noise"

    def test_regressed_beyond_the_bound(self):
        # Median 104.5 * 1.3 = 135.85, worse by 31.35 > 0.25 * 104.5.
        new = [b * 1.3 for b in BASE]
        assert perfcompare.verdict(BASE, new, "lower", 0.25) == "regressed"

    def test_worse_within_the_bound_is_noise(self):
        new = [b * 1.2 for b in BASE]
        assert perfcompare.verdict(BASE, new, "lower", 0.25) == "noise"

    def test_undecidable_when_the_base_spreads_past_the_bound(self):
        # Quartiles 1.25 / 2 / 3: an IQR of 87.5 % of the median.
        base = [1, 1, 1, 2, 2, 2, 3, 3, 3, 3]
        new = [0.5] * 10
        assert perfcompare.verdict(base, new, "lower", 0.25) == "undecidable"

    def test_higher_is_better(self):
        base = [10.0] * 10
        assert perfcompare.verdict(base, [11.0] * 10, "higher", 0.25) \
            == "improved"
        assert perfcompare.verdict(base, [7.0] * 10, "higher", 0.25) \
            == "regressed"
        assert perfcompare.verdict(base, [10.0] * 10, "higher", 0.25) \
            == "noise"

    def test_without_a_bound_regression_needs_the_pairs(self):
        worse = [b + 10 for b in BASE]
        assert perfcompare.verdict(BASE, worse, "lower") == "regressed"
        mixed = [b + 10 for b in BASE[:8]] + [b - 1 for b in BASE[8:]]
        assert perfcompare.verdict(BASE, mixed, "lower") == "noise"

    def test_unequal_sides_are_refused(self):
        with pytest.raises(ValueError):
            perfcompare.verdict([1, 2], [1], "lower", 0.25)


def test_the_table_has_a_row_per_declared_metric():
    base = [{"op_s_p50": b, "ok_frac": 1.0} for b in BASE]
    new = [{"op_s_p50": b - 10, "ok_frac": 1.0} for b in BASE]
    metrics = [("op_s_p50", "lower", 0.25), ("ok_frac", "higher", 0.01),
               ("not_produced", "lower", 0.25)]
    rows = perfcompare.table(base, new, metrics).splitlines()[2:]
    assert [row.split()[0] for row in rows] == ["op_s_p50", "ok_frac"]
    assert rows[0].split()[-2:] == ["10/10", "improved"]
    assert rows[1].split()[-2:] == ["0/10", "noise"]
