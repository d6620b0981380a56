"""Tests for the 2-approximate MWM via MaxIS on the line graph (§2.4)."""

import hashlib
import json

import networkx as nx
import pytest

from repro.api import Instance, solve
from repro.congest import CongestionAudit, canonical_edge
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
        assert all(snapshot.rounds == 0 for snapshot in snapshots)


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


class TestAuditTables:
    """The full Theorem 2.8 audit tables of one audited run per MaxIS
    engine, pinned.  Each table maps round -> {physical edge: load};
    the naive table is pinned by its per-round totals and maxima and by
    a digest of every ``(round, edge, load)`` entry."""

    #: method -> (per-round naive totals, per-round naive maxima,
    #: sha256 of the sorted naive table).
    EXPECTED = {
        "layers": (
            {0: 316, 1: 140, 2: 46, 3: 270, 4: 49, 5: 2, 6: 6, 7: 13},
            {0: 12, 1: 8, 2: 4, 3: 11, 4: 4, 5: 1, 6: 3, 7: 4},
            "0e5560bd6cb4f8191cb2d5b467d07bf90dfa28a917efa0c9b7da96a84dd51c3c",
        ),
        "coloring": (
            {-1: 26, 0: 165, 1: 43, 2: 37, 3: 35, 4: 23, 5: 26, 6: 15},
            {-1: 6, 0: 10, 1: 6, 2: 7, 3: 6, 4: 4, 5: 6, 6: 6},
            "57905404ec580489b59c118f3077cbf5fab7e57ffe3e950217c99c0c17b0f67d",
        ),
    }

    @staticmethod
    def audited(method):
        graph = assign_edge_weights(gnp_graph(14, 0.35, seed=3), 16, seed=4)
        audit = CongestionAudit()
        solve(Instance(graph, seed=2), "matching-lines", method=method,
              audit=audit)
        return graph, audit

    @pytest.mark.parametrize("method", ["layers", "coloring"])
    def test_tables_pinned(self, method):
        graph, audit = self.audited(method)
        totals, maxima, digest = self.EXPECTED[method]
        naive = audit.naive_per_round
        assert list(naive) == list(totals)
        assert {r: sum(t.values()) for r, t in naive.items()} == totals
        assert {r: max(t.values()) for r, t in naive.items()} == maxima
        encoded = json.dumps(sorted(
            [r, sorted([list(edge), load] for edge, load in table.items())]
            for r, table in naive.items()
        ))
        assert hashlib.sha256(encoded.encode()).hexdigest() == digest
        every_edge = {canonical_edge(u, v): 2 for u, v in graph.edges}
        assert audit.aggregated_per_round == {r: every_edge for r in totals}

    def test_coloring_prices_on_start_as_round_minus_one(self):
        """``MaxISColoringProgram.on_start`` already sends ``reduce``;
        that traffic is the audit's round -1."""

        _graph, audit = self.audited("coloring")
        assert sorted(audit.naive_per_round[-1].items()) == [
            ((1, 2), 1), ((1, 3), 1), ((1, 6), 1), ((1, 7), 3),
            ((10, 9), 3), ((10, 11), 1), ((10, 12), 1), ((11, 3), 1),
            ((11, 4), 1), ((11, 5), 1), ((11, 8), 1), ((11, 12), 6),
            ((11, 13), 1), ((12, 3), 1), ((12, 5), 1), ((12, 7), 1),
            ((12, 8), 1),
        ]
        assert -1 in audit.aggregated_per_round
