"""Tests for the LOCAL-model (1+ε) matching (Theorem B.4)."""

import math

import pytest

from repro.api import Instance, solve
from repro.core import (
    local_matching_1eps_phases,
    shortest_augmenting_path_length,
    theorem_b4_round_budget,
)
from repro.errors import InvalidInstance
from repro.graphs import (
    check_matching,
    cycle_graph,
    gnp_graph,
    path_graph,
    random_regular_graph,
)
from repro.matching import optimum_cardinality
from repro.utils import drain


def oneeps(graph, eps, seed):
    """Theorem B.4 through the facade."""

    return solve(Instance(graph, eps=eps, seed=seed), "matching-oneeps")


class TestQuality:
    @pytest.mark.parametrize("seed", range(4))
    def test_one_plus_eps_guarantee(self, seed):
        g = gnp_graph(24, 0.2, seed=seed)
        eps = 0.5
        result = drain(local_matching_1eps_phases(g, eps=eps, seed=seed))
        check_matching(g, [tuple(e) for e in result.matching])
        opt = optimum_cardinality(g)
        slack = len(result.deactivated)  # deactivated nodes are excused
        assert (1 + eps) * (result.cardinality + slack) >= opt

    def test_tighter_eps_gives_better_matching(self):
        g = random_regular_graph(4, 40, seed=3)
        opt = optimum_cardinality(g)
        coarse = oneeps(g, eps=1.0, seed=4).size
        fine = oneeps(g, eps=0.34, seed=4).size
        assert fine >= coarse
        assert (1 + 0.34) * fine + 2 >= opt  # small additive slack

    def test_path_graph_near_perfect(self):
        g = path_graph(21)
        result = oneeps(g, eps=0.34, seed=5)
        assert result.size >= 9  # opt = 10

    def test_odd_cycle(self):
        g = cycle_graph(9)
        result = oneeps(g, eps=0.5, seed=6)
        assert result.size >= 3  # opt = 4


class TestHKInvariant:
    @pytest.mark.parametrize("seed", range(3))
    def test_no_short_augmenting_path_among_active(self, seed):
        """After the loop, no augmenting path of length ≤ 2⌈1/ε⌉+1 may
        survive among non-deactivated nodes (Theorem B.4's argument)."""

        g = gnp_graph(20, 0.25, seed=seed)
        eps = 0.5
        result = drain(local_matching_1eps_phases(g, eps=eps, seed=seed))
        active = set(g.nodes) - result.deactivated
        max_length = 2 * math.ceil(1 / eps) + 1
        remaining = shortest_augmenting_path_length(
            g, result.matching, active=active, max_length=max_length
        )
        assert remaining is None

    def test_initial_matching_respected(self):
        g = path_graph(6)
        initial = {frozenset((2, 3))}
        result = solve(Instance(g, eps=0.5, seed=7), "matching-oneeps",
                       initial_matching=initial)
        check_matching(g, [tuple(e) for e in result.solution])
        assert result.size >= 2


class TestAccounting:
    def test_ledger_phases_charged(self, small_graph):
        result = drain(local_matching_1eps_phases(small_graph, eps=0.5,
                                                  seed=1))
        assert result.rounds == result.ledger.total
        assert any(label.startswith("nmm-phase")
                   for label in result.ledger.breakdown)

    def test_analytic_budget_positive_and_monotone(self):
        assert theorem_b4_round_budget(64, 0.5) > 0
        assert theorem_b4_round_budget(64, 0.25) > theorem_b4_round_budget(
            64, 0.5
        )

    def test_invalid_eps(self, small_graph):
        with pytest.raises(InvalidInstance):
            oneeps(small_graph, eps=0, seed=0)
