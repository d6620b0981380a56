"""Tests for line-graph construction and the congestion audit."""

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from repro.api import Instance, solve
from repro.congest import (
    CongestionAudit,
    canonical_edge,
    line_graph,
    primary_endpoint,
    secondary_endpoint,
    shared_endpoint,
)
from repro.graphs import gnp_graph, path_graph, star_graph


class TestCanonicalEdge:
    def test_symmetric(self):
        assert canonical_edge(1, 2) == canonical_edge(2, 1)

    def test_endpoints_preserved(self):
        assert set(canonical_edge(5, 3)) == {3, 5}

    def test_primary_secondary_are_endpoints(self):
        e = canonical_edge(4, 9)
        assert {primary_endpoint(e), secondary_endpoint(e)} == {4, 9}


class TestLineGraph:
    def test_node_count_equals_edge_count(self, small_graph):
        lg = line_graph(small_graph)
        assert lg.number_of_nodes() == small_graph.number_of_edges()

    def test_degree_identity(self):
        """deg_L(e) = deg(u) + deg(v) - 2 for e = (u, v)."""

        g = gnp_graph(15, 0.3, seed=2)
        lg = line_graph(g)
        for e in lg.nodes:
            u, v = e
            assert lg.degree(e) == g.degree(u) + g.degree(v) - 2

    def test_star_line_graph_is_complete(self):
        g = star_graph(6)
        lg = line_graph(g)
        n = lg.number_of_nodes()
        assert lg.number_of_edges() == n * (n - 1) // 2

    def test_path_line_graph_is_path(self):
        lg = line_graph(path_graph(6))
        degrees = sorted(d for _, d in lg.degree())
        assert degrees == [1, 1, 2, 2, 2]

    def test_edge_weights_become_node_weights(self):
        g = nx.Graph()
        g.add_edge(0, 1, weight=7)
        lg = line_graph(g)
        assert lg.nodes[canonical_edge(0, 1)]["weight"] == 7

    @given(st.integers(min_value=0, max_value=60))
    @settings(max_examples=20, deadline=None)
    def test_matches_networkx_line_graph(self, seed):
        g = gnp_graph(10, 0.3, seed=seed)
        ours = line_graph(g)
        theirs = nx.line_graph(g)
        assert ours.number_of_nodes() == theirs.number_of_nodes()
        assert ours.number_of_edges() == theirs.number_of_edges()


class TestSharedEndpoint:
    def test_shared(self):
        assert shared_endpoint((1, 2), (2, 3)) == 2

    def test_disjoint_raises(self):
        with pytest.raises(ValueError):
            shared_endpoint((1, 2), (3, 4))


def _audited_lines(graph):
    """Theorem 2.10 on ``L(graph)`` with a congestion audit attached."""

    audit = CongestionAudit()
    solve(Instance(graph), "matching-lines", audit=audit)
    return audit


class TestCongestionAudit:
    def test_naive_load_grows_with_star_degree(self):
        small = _audited_lines(star_graph(4))
        big = _audited_lines(star_graph(12))
        assert big.max_naive_load() > small.max_naive_load()

    def test_aggregated_load_is_constant(self):
        for leaves in (4, 8, 12):
            audit = _audited_lines(star_graph(leaves))
            assert audit.max_aggregated_load() == 2

    def test_aggregated_round_recorded_once_per_busy_round(self,
                                                           monkeypatch):
        """The Theorem 2.8 cost is per round: an audited run records it
        once per round that carried traffic, not once per message."""

        recorded = []
        busy = set()
        record_round = CongestionAudit.record_aggregated_round
        record_message = CongestionAudit.record_line_message

        def spy_round(self, round_index, graph):
            recorded.append(round_index)
            record_round(self, round_index, graph)

        def spy_message(self, round_index, src, dst):
            busy.add(round_index)
            record_message(self, round_index, src, dst)

        monkeypatch.setattr(CongestionAudit, "record_aggregated_round",
                            spy_round)
        monkeypatch.setattr(CongestionAudit, "record_line_message",
                            spy_message)
        g = gnp_graph(12, 0.4, seed=3)
        audit = _audited_lines(g)
        assert busy
        assert recorded == sorted(busy)
        everywhere = {canonical_edge(u, v): 2 for u, v in g.edges}
        assert audit.aggregated_per_round == {
            round_index: everywhere for round_index in busy
        }
