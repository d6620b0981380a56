"""Tests for the exact MWIS oracle."""

import itertools

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from repro.graphs import (
    assign_node_weights,
    check_independent_set,
    complete_graph,
    cycle_graph,
    gnp_graph,
)
from repro.mis import exact_mwis, mwis_weight


def brute_force_mwis_weight(graph) -> int:
    """Reference oracle by exhaustive search (use only for n <= 16)."""

    nodes = list(graph.nodes)
    best = 0
    for r in range(len(nodes) + 1):
        for subset in itertools.combinations(nodes, r):
            chosen = set(subset)
            if any(v in chosen for u in chosen
                   for v in graph.neighbors(u)):
                continue
            best = max(best, mwis_weight(graph, chosen))
    return best


class TestExactMwis:
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_brute_force(self, seed):
        g = assign_node_weights(gnp_graph(12, 0.3, seed=seed), 10,
                                seed=seed + 1)
        exact = exact_mwis(g)
        check_independent_set(g, exact)
        assert mwis_weight(g, exact) == brute_force_mwis_weight(g)

    def test_complete_graph_picks_heaviest(self):
        g = complete_graph(6)
        nx.set_node_attributes(
            g, {v: v + 1 for v in g.nodes}, "weight"
        )
        assert exact_mwis(g) == {5}

    def test_even_cycle_unweighted(self):
        assert len(exact_mwis(cycle_graph(8))) == 4

    def test_odd_cycle_unweighted(self):
        assert len(exact_mwis(cycle_graph(7))) == 3

    def test_exact_at_least_greedy(self, weighted_graph):
        exact = mwis_weight(weighted_graph, exact_mwis(weighted_graph))
        maximal = nx.maximal_independent_set(weighted_graph, seed=0)
        assert exact >= mwis_weight(weighted_graph, maximal)

    @given(st.integers(min_value=0, max_value=25))
    @settings(max_examples=10, deadline=None)
    def test_property_small_graphs(self, seed):
        g = assign_node_weights(gnp_graph(10, 0.35, seed=seed), 8,
                                seed=seed)
        exact = exact_mwis(g)
        check_independent_set(g, exact)
        assert mwis_weight(g, exact) == brute_force_mwis_weight(g)
