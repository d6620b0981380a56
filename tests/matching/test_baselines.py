"""Tests for the greedy matching baseline, the exact oracles and the
bipartite side split."""

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import InvalidInstance
from repro.graphs import (
    assign_edge_weights,
    check_matching,
    cycle_graph,
    gnp_graph,
    path_graph,
)
from repro.matching import (
    bipartite_sides,
    exact_max_cardinality_matching,
    exact_max_weight_matching,
    greedy_weighted_matching,
    matching_weight,
    optimum_cardinality,
    optimum_weight,
)


class TestGreedyWeighted:
    def test_valid_matching(self, edge_weighted_graph):
        m = greedy_weighted_matching(edge_weighted_graph)
        check_matching(edge_weighted_graph, [tuple(e) for e in m])

    @pytest.mark.parametrize("seed", range(5))
    def test_half_approximation(self, seed):
        g = assign_edge_weights(gnp_graph(16, 0.3, seed=seed), 20,
                                seed=seed + 1)
        greedy = matching_weight(g, greedy_weighted_matching(g))
        assert 2 * greedy >= optimum_weight(g)

    def test_prefers_heavy_edge(self):
        g = path_graph(3)
        nx.set_edge_attributes(g, {(0, 1): 1, (1, 2): 10}, "weight")
        m = greedy_weighted_matching(g)
        assert m == {frozenset((1, 2))}


class TestExactOracles:
    def test_weight_at_least_cardinality_weight(self, edge_weighted_graph):
        w = optimum_weight(edge_weighted_graph)
        c = optimum_cardinality(edge_weighted_graph)
        assert w >= c  # weights are >= 1

    def test_path_exact(self):
        g = path_graph(4)
        assert optimum_cardinality(g) == 2

    def test_even_cycle(self):
        assert optimum_cardinality(cycle_graph(8)) == 4

    def test_odd_cycle(self):
        assert optimum_cardinality(cycle_graph(7)) == 3

    def test_weighted_prefers_heavy(self):
        g = path_graph(3)
        nx.set_edge_attributes(g, {(0, 1): 5, (1, 2): 2}, "weight")
        m = exact_max_weight_matching(g)
        assert m == {frozenset((0, 1))}

    def test_exact_valid(self, edge_weighted_graph):
        m = exact_max_weight_matching(edge_weighted_graph)
        check_matching(edge_weighted_graph, [tuple(e) for e in m])
        m2 = exact_max_cardinality_matching(edge_weighted_graph)
        check_matching(edge_weighted_graph, [tuple(e) for e in m2])

    @given(st.integers(min_value=0, max_value=20))
    @settings(max_examples=10, deadline=None)
    def test_cardinality_dominates_all_matchings(self, seed):
        g = gnp_graph(12, 0.3, seed=seed)
        opt = optimum_cardinality(g)
        assert len(nx.maximal_matching(g)) <= opt


class TestBipartiteSides:
    def test_uses_side_attribute(self, bipartite_graph):
        a, b = bipartite_sides(bipartite_graph)
        assert len(a) == 15 and len(b) == 15

    def test_falls_back_to_two_coloring(self):
        g = path_graph(4)
        a, b = bipartite_sides(g)
        assert a | b == set(g.nodes)
        for u, v in g.edges:
            assert (u in a) != (v in a)

    def test_rejects_odd_cycle(self):
        g = nx.cycle_graph(5)
        with pytest.raises(InvalidInstance):
            bipartite_sides(g)

    def test_rejects_partial_side_attributes(self):
        g = nx.Graph()
        g.add_node(0, side="A")
        g.add_node(1)
        g.add_edge(0, 1)
        with pytest.raises(InvalidInstance):
            bipartite_sides(g)
