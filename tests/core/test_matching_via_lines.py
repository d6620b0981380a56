"""Tests for the 2-approximate MWM via MaxIS on the line graph (§2.4)."""

import networkx as nx
import pytest

from repro.api import Instance, solve
from repro.congest import CongestionAudit
from repro.core import matching_lines_phases
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
from repro.utils import drain


def lines(graph, method="layers", seed=0):
    """Theorem 2.10 through the facade with the given MaxIS engine."""

    return solve(Instance(graph, seed=seed), "matching-lines",
                 method=method)


class TestTwoApproximation:
    @pytest.mark.parametrize("method", ["layers", "coloring"])
    @pytest.mark.parametrize("seed", range(3))
    def test_weight_at_least_half_optimum(self, method, seed):
        """Theorem 2.10: on L(G) the local-ratio factor is 2."""

        g = assign_edge_weights(gnp_graph(16, 0.25, seed=seed), 16,
                                seed=seed + 1)
        result = lines(g, method=method, seed=seed + 2)
        check_matching(g, [tuple(e) for e in result.solution])
        assert 2 * result.objective >= optimum_weight(g)

    @pytest.mark.parametrize("method", ["layers", "coloring"])
    def test_structured_graphs(self, method):
        for g in (path_graph(9), cycle_graph(10), star_graph(7)):
            assign_edge_weights(g, 8, seed=3)
            result = lines(g, method=method, seed=4)
            check_matching(g, [tuple(e) for e in result.solution])
            assert 2 * result.objective >= optimum_weight(g)

    def test_bimodal_weights_pick_heavy_edges(self):
        """Weight-oblivious matching fails here; local ratio must not."""

        g = assign_edge_weights(gnp_graph(20, 0.25, seed=5), 100,
                                scheme="bimodal", seed=6)
        result = lines(g, method="layers", seed=7)
        assert 2 * result.objective >= optimum_weight(g)

    def test_unweighted_half_optimum(self, small_graph):
        # Local ratio does not promise maximality (see the MaxIS
        # non-maximality tests); the factor-2 bound is the guarantee.
        from repro.matching import optimum_cardinality

        result = lines(small_graph, method="coloring")
        check_matching(small_graph, [tuple(e) for e in result.solution])
        assert 2 * len(result.solution) >= optimum_cardinality(small_graph)

    def test_empty_graph(self):
        g = nx.Graph()
        g.add_nodes_from(range(3))
        result = lines(g)
        assert result.solution == frozenset()
        assert result.rounds == 0

    def test_unknown_method_rejected(self, small_graph):
        with pytest.raises(InvalidInstance):
            lines(small_graph, method="bogus")

    def test_deterministic_coloring_method(self, edge_weighted_graph):
        a = lines(edge_weighted_graph, method="coloring")
        b = lines(edge_weighted_graph, method="coloring")
        assert a.solution == b.solution

    @pytest.mark.parametrize("method", ["layers", "coloring"])
    def test_zero_budget_truncates_not_unbounded(self, edge_weighted_graph,
                                                 method):
        # max_rounds=0 is an explicit (exhausted) budget, not "use the
        # default cap": the phase generator must stop at the initial
        # state and report truncation (return None), simulating nothing.
        gen = matching_lines_phases(edge_weighted_graph, method=method,
                                    seed=2, max_rounds=0)
        snapshots = []
        while True:
            try:
                snapshots.append(next(gen))
            except StopIteration as stop:
                assert stop.value is None
                break
        assert all(snapshot[0] == 0 for snapshot in snapshots)


class TestCongestionClaim:
    def test_audit_shows_theorem_2_8_separation(self):
        """Naive line-graph simulation congests with Δ; the aggregation
        mechanism stays at 2 messages per physical edge per round."""

        g = assign_edge_weights(star_graph(10), 8, seed=1)
        audit = CongestionAudit()
        drain(matching_lines_phases(g, method="layers", seed=2,
                                    audit=audit))
        assert audit.max_naive_load() > audit.max_aggregated_load()
        assert audit.max_aggregated_load() == 2
