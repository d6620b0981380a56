"""Tests for the footnote-5 weight-group matching on G."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.api import Instance, solve
from repro.core import weight_group_matching
from repro.errors import InvalidInstance
from repro.graphs import (
    assign_edge_weights,
    check_matching,
    cycle_graph,
    gnp_graph,
    path_graph,
    star_graph,
)
from repro.matching import optimum_weight


class TestWeightGroupMatching:
    @pytest.mark.parametrize("seed", range(5))
    def test_two_approximation(self, seed):
        g = assign_edge_weights(gnp_graph(18, 0.25, seed=seed), 32,
                                seed=seed + 1)
        result = weight_group_matching(g, seed=seed)
        check_matching(g, [tuple(e) for e in result.matching])
        assert 2 * result.weight >= optimum_weight(g)

    def test_structured_graphs(self):
        for g in (path_graph(9), cycle_graph(10), star_graph(7)):
            assign_edge_weights(g, 16, seed=2)
            result = weight_group_matching(g, seed=3)
            check_matching(g, [tuple(e) for e in result.matching])
            assert 2 * result.weight >= optimum_weight(g)

    def test_bimodal_weights(self):
        g = assign_edge_weights(gnp_graph(24, 0.2, seed=4), 200,
                                scheme="bimodal", seed=5)
        result = weight_group_matching(g, seed=6)
        assert 2 * result.weight >= optimum_weight(g)

    def test_matches_line_graph_formulation_quality(self):
        """Footnote 5: the direct formulation achieves the same factor
        as Algorithm 2 on L(G); on any shared instance both are within
        the bound (they need not pick identical matchings)."""

        g = assign_edge_weights(gnp_graph(16, 0.3, seed=7), 32, seed=8)
        direct = weight_group_matching(g, seed=9)
        via_lines = solve(Instance(g, seed=9), "matching-lines")
        opt = optimum_weight(g)
        assert 2 * direct.weight >= opt
        assert 2 * via_lines.objective >= opt

    def test_empty_graph(self):
        import networkx as nx

        result = weight_group_matching(nx.Graph())
        assert result.matching == set()
        assert result.weight == 0

    def test_single_edge(self):
        g = assign_edge_weights(path_graph(2), 5, seed=1)
        result = weight_group_matching(g)
        assert len(result.matching) == 1

    def test_rejects_non_positive_weights(self):
        import networkx as nx

        g = nx.Graph()
        g.add_edge(0, 1, weight=0)
        with pytest.raises(InvalidInstance):
            weight_group_matching(g)

    def test_ledger_breakdown(self, edge_weighted_graph):
        result = weight_group_matching(edge_weighted_graph)
        assert result.rounds == result.ledger.total
        assert "maximal-matching" in result.ledger.breakdown
        assert result.iterations >= 1

    def test_deterministic_per_seed(self, edge_weighted_graph):
        a = weight_group_matching(edge_weighted_graph, seed=11)
        b = weight_group_matching(edge_weighted_graph, seed=11)
        assert a.matching == b.matching

    @given(st.integers(min_value=0, max_value=25))
    @settings(max_examples=10, deadline=None)
    def test_property_two_approx(self, seed):
        g = assign_edge_weights(gnp_graph(12, 0.3, seed=seed), 16,
                                seed=seed)
        result = weight_group_matching(g, seed=seed + 40)
        check_matching(g, [tuple(e) for e in result.matching])
        assert 2 * result.weight >= optimum_weight(g)
