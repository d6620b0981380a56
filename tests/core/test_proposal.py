"""Tests for the Appendix B.4 proposal matching."""

import pytest

from repro.api import Instance, solve
from repro.core import (
    bipartite_proposal_phases,
    general_proposal_phases,
    lemma_b13_rounds,
    optimal_k,
)
from repro.errors import InvalidInstance
from repro.graphs import (
    bipartite_regular_graph,
    check_matching,
    gnp_graph,
    random_bipartite_graph,
)
from repro.matching import bipartite_sides, optimum_cardinality
from repro.utils import drain


class TestBudget:
    def test_rounds_formula(self):
        assert lemma_b13_rounds(64, 0.25, 4) > 0

    def test_rejects_small_k(self):
        with pytest.raises(InvalidInstance):
            lemma_b13_rounds(64, 0.25, 1)

    def test_optimal_k_at_least_two(self):
        assert optimal_k(2, 0.25) >= 2
        assert optimal_k(10**6, 0.25) >= 2

    def test_optimizing_helps_for_large_delta(self):
        """The optimized K beats K=2 on the Lemma B.13 bound."""

        delta, eps = 10**5, 0.25
        k = optimal_k(delta, eps)
        assert lemma_b13_rounds(delta, eps, k) <= lemma_b13_rounds(
            delta, eps, 2
        )


class TestBipartite:
    @pytest.mark.parametrize("seed", range(4))
    def test_valid_matching(self, seed):
        g = random_bipartite_graph(12, 12, 0.25, seed=seed)
        left, right = bipartite_sides(g)
        result = drain(bipartite_proposal_phases(g, left, right, eps=0.25,
                                                 seed=seed))
        check_matching(g, [tuple(e) for e in result.matching])

    def test_unlucky_fraction_small(self):
        """Lemma B.13: each left node unlucky w.p. ≤ ε/2."""

        eps = 0.25
        unlucky_total = 0
        left_total = 0
        for seed in range(5):
            g = bipartite_regular_graph(20, 4, seed=seed)
            left, right = bipartite_sides(g)
            result = drain(bipartite_proposal_phases(g, left, right,
                                                     eps=eps, seed=seed))
            unlucky_total += len(result.unlucky & left)
            left_total += len(left)
        assert unlucky_total / left_total <= eps

    def test_unlucky_nodes_are_unmatched_non_isolated(self):
        g = random_bipartite_graph(10, 4, 0.5, seed=3)
        left, right = bipartite_sides(g)
        result = drain(bipartite_proposal_phases(g, left, right, eps=0.5,
                                                 seed=3, phases=1))
        matched = {v for e in result.matching for v in e}
        for v in result.unlucky:
            assert v not in matched
            assert g.degree(v) > 0

    def test_crossing_edges_enforced(self):
        import networkx as nx

        g = nx.Graph()
        g.add_edge(0, 1)
        with pytest.raises(InvalidInstance):
            drain(bipartite_proposal_phases(g, {0, 1}, set(), seed=0))

    def test_rounds_bounded_by_phases(self):
        g = random_bipartite_graph(15, 15, 0.2, seed=4)
        left, right = bipartite_sides(g)
        result = drain(bipartite_proposal_phases(g, left, right, phases=5,
                                                 seed=4))
        assert result.rounds <= 2 * 5 + 4


class TestGeneral:
    @pytest.mark.parametrize("seed", range(4))
    def test_valid_matching(self, seed):
        g = gnp_graph(24, 0.2, seed=seed)
        matching, rounds, ledger = drain(general_proposal_phases(
            g, eps=0.25, seed=seed
        ))
        check_matching(g, [tuple(e) for e in matching])
        assert rounds == ledger.total

    def test_two_plus_eps_on_average(self):
        """Lemma B.14: (2+ε)-approximation (checked with seed slack)."""

        eps = 0.5
        good = 0
        for seed in range(5):
            g = gnp_graph(26, 0.2, seed=seed)
            report = solve(Instance(g, eps=eps, seed=seed),
                           "matching-proposal")
            if (2 + eps) * report.size >= optimum_cardinality(g):
                good += 1
        assert good >= 4

    def test_repetitions_improve_coverage(self):
        g = gnp_graph(24, 0.25, seed=6)
        instance = Instance(g, eps=0.5, seed=6)
        few = solve(instance, "matching-proposal", repetitions=1)
        many = solve(instance, "matching-proposal", repetitions=6)
        assert many.size >= few.size
