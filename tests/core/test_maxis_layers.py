"""Tests for Algorithm 2 — layered distributed MaxIS."""

import pytest

from repro.api import Instance, solve
from repro.congest import SynchronousNetwork
from repro.core import LayerTrace, maxis_layers_phases
from repro.errors import InvalidInstance
from repro.graphs import (
    assign_node_weights,
    check_independent_set,
    empty_graph,
    gnp_graph,
    max_degree,
    star_graph,
)
from repro.mis import exact_mwis, mwis_weight
from repro.utils import drain


def layers(graph, seed=0):
    """Algorithm 2 through the facade at a fixed seed."""

    return solve(Instance(graph, seed=seed), "maxis-layers")


class TestCorrectness:
    def test_independent_output(self, weighted_graph):
        result = layers(weighted_graph, seed=1)
        check_independent_set(weighted_graph, result.solution)

    @pytest.mark.parametrize("seed", range(5))
    def test_delta_approximation(self, seed):
        g = assign_node_weights(gnp_graph(14, 0.3, seed=seed), 32,
                                seed=seed + 1)
        result = layers(g, seed=seed + 2)
        optimum = mwis_weight(g, exact_mwis(g))
        delta = max(1, max_degree(g))
        assert delta * result.objective >= optimum

    def test_star_trap(self):
        """§1.1: the adversarial star must not end with an empty set."""

        g = assign_node_weights(star_graph(6), 40, scheme="star-trap")
        result = layers(g, seed=3)
        assert result.solution
        optimum = mwis_weight(g, exact_mwis(g))
        assert max_degree(g) * result.objective >= optimum

    def test_unweighted_graph(self, small_graph):
        result = layers(small_graph, seed=4)
        check_independent_set(small_graph, result.solution)
        assert result.objective == len(result.solution)

    def test_every_node_gets_an_output(self, weighted_graph):
        result = layers(weighted_graph, seed=5)
        # Solution quality aside, the protocol must decide every node:
        # the independent set is exactly the InIS nodes and the rest
        # halted NotInIS (checked implicitly by termination).
        assert result.rounds > 0

    def test_output_need_not_be_maximal(self):
        """Local ratio guarantees Δ-approximation, NOT maximality: a
        node whose weight is consumed by candidates that later get
        knocked out can end uncovered.  This instance (found by
        hypothesis) realizes that for the meta-algorithm and both
        distributed implementations — the Δ bound still holds."""

        g = assign_node_weights(gnp_graph(6, 0.3, seed=82), 6,
                                scheme="uniform", seed=82)
        result = layers(g, seed=0)
        check_independent_set(g, result.solution)
        optimum = mwis_weight(g, exact_mwis(g))
        assert max_degree(g) * result.objective >= optimum

    def test_isolated_nodes_all_join(self):
        g = assign_node_weights(empty_graph(5), 9, seed=1)
        result = layers(g, seed=7)
        assert result.solution == set(range(5))

    def test_single_node(self):
        g = assign_node_weights(empty_graph(1), 3, seed=0)
        result = layers(g)
        assert result.solution == {0}

    def test_rejects_non_positive_weights(self):
        import networkx as nx

        g = nx.Graph()
        g.add_node(0, weight=0)
        with pytest.raises(InvalidInstance):
            layers(g)

    def test_deterministic_per_seed(self, weighted_graph):
        a = layers(weighted_graph, seed=11)
        b = layers(weighted_graph, seed=11)
        assert a.solution == b.solution


class TestRounds:
    def test_rounds_grow_with_log_w(self):
        """Theorem 2.3: rounds scale with log W at fixed topology.

        The log-uniform scheme occupies every layer equally, which is
        the workload that exposes the log W factor."""

        g_small = assign_node_weights(gnp_graph(40, 0.1, seed=1), 2,
                                      scheme="log-uniform", seed=2)
        g_large = assign_node_weights(gnp_graph(40, 0.1, seed=1), 4096,
                                      scheme="log-uniform", seed=2)
        rounds_small = []
        rounds_large = []
        for seed in range(4):
            rounds_small.append(
                layers(g_small, seed=seed).rounds
            )
            rounds_large.append(
                layers(g_large, seed=seed).rounds
            )
        assert sum(rounds_large) > sum(rounds_small)

    def test_metrics_accumulate_on_shared_network(self, weighted_graph):
        net = SynchronousNetwork(weighted_graph, seed=9)
        drain(maxis_layers_phases(weighted_graph, network=net))
        assert net.metrics.rounds > 0
        assert net.metrics.messages > 0

    def test_layer_trace_topmost_is_nonincreasing_overall(self):
        g = assign_node_weights(gnp_graph(30, 0.15, seed=3), 256,
                                scheme="geometric", seed=4)
        trace = LayerTrace()
        drain(maxis_layers_phases(g, seed=10, trace=trace))
        series = trace.top_layer_series()
        assert series, "trace should record layer occupancy"
        # Lemma A.1: the top layer can only move down over time.
        assert all(b <= a for a, b in zip(series, series[1:]))
