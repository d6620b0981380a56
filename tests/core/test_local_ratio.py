"""Tests for Algorithm 1 — the sequential local-ratio meta-algorithm.

These assert the Lemma 2.2 / Theorem 2.1 invariants on concrete random
executions, plus the end-to-end Δ-approximation guarantee against the
exact MWIS oracle.
"""

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import InvalidInstance
from repro.graphs import (
    assign_node_weights,
    check_independent_set,
    gnp_graph,
    max_degree,
    node_weight,
    star_graph,
)
from repro.mis import exact_mwis, mwis_weight

from local_ratio_oracle import (
    exchange_step,
    random_mis_selector,
    sequential_local_ratio,
    split_weights,
)


class TestSplitWeights:
    def test_weight_vector_splits_exactly(self):
        """Theorem 2.1's premise: w = w1 + w2."""

        g = assign_node_weights(gnp_graph(15, 0.25, seed=1), 16, seed=2)
        weights = {v: float(node_weight(g, v)) for v in g.nodes}
        chosen = {next(iter(g.nodes))}
        reduced, residual = split_weights(g, weights, chosen)
        for v in g.nodes:
            assert reduced[v] + residual[v] == pytest.approx(weights[v])

    def test_chosen_nodes_fully_consumed(self):
        """Lemma 2.2's premise: w2[u] = w[u], hence w1[u] = 0, u ∈ U."""

        g = assign_node_weights(gnp_graph(15, 0.25, seed=1), 16, seed=2)
        weights = {v: float(node_weight(g, v)) for v in g.nodes}
        selector = random_mis_selector(3)
        chosen = selector(g, weights)
        reduced, residual = split_weights(g, weights, chosen)
        for u in chosen:
            assert residual[u] == pytest.approx(weights[u])
            assert reduced[u] == pytest.approx(0.0)

    def test_residual_is_closed_neighborhood_sum(self):
        g = star_graph(4)
        weights = {v: 10.0 for v in g.nodes}
        reduced, residual = split_weights(g, weights, {1, 2})
        assert residual[0] == 20.0  # hub neighbors both chosen leaves
        assert residual[1] == 10.0
        assert residual[3] == 0.0

    def test_rejects_dependent_set(self):
        g = star_graph(3)
        weights = {v: 1.0 for v in g.nodes}
        with pytest.raises(Exception):
            split_weights(g, weights, {0, 1})


class TestExchangeStep:
    def test_adds_uncovered_nodes(self):
        g = star_graph(3)
        assert exchange_step(g, {0}, set()) == {0}

    def test_skips_covered_nodes(self):
        g = star_graph(3)
        # Hub 0 is in U; leaf 1 is already in the solution.
        assert exchange_step(g, {0}, {1}) == {1}

    def test_coverage_invariant(self):
        """After the exchange, every u ∈ U is in x' or has a neighbor
        in x' — the inequality at the heart of Lemma 2.2."""

        g = gnp_graph(20, 0.2, seed=4)
        selector = random_mis_selector(5)
        chosen = selector(g, {v: 1.0 for v in g.nodes})
        solution = exchange_step(g, chosen, set())
        for u in chosen:
            covered = u in solution or any(
                v in solution for v in g.neighbors(u)
            )
            assert covered


class TestSequentialLocalRatio:
    def test_returns_independent_set(self, weighted_graph):
        solution = sequential_local_ratio(weighted_graph)
        check_independent_set(weighted_graph, solution)

    @pytest.mark.parametrize("seed", range(5))
    def test_delta_approximation(self, seed):
        g = assign_node_weights(gnp_graph(14, 0.3, seed=seed), 16,
                                seed=seed + 1)
        solution = sequential_local_ratio(
            g, selector=random_mis_selector(seed)
        )
        found = mwis_weight(g, solution)
        optimum = mwis_weight(g, exact_mwis(g))
        delta = max(1, max_degree(g))
        assert delta * found >= optimum

    def test_star_trap_is_handled(self):
        """The §1.1 counterexample: naive simultaneous reductions would
        end with nothing selected; the meta-algorithm still returns a
        Δ-approximate (here: non-empty, covering) solution."""

        g = assign_node_weights(star_graph(6), 40, scheme="star-trap")
        solution = sequential_local_ratio(g)
        assert solution  # something was chosen
        found = mwis_weight(g, solution)
        optimum = mwis_weight(g, exact_mwis(g))
        assert max_degree(g) * found >= optimum

    def test_unweighted_defaults_to_one(self, small_graph):
        solution = sequential_local_ratio(small_graph)
        check_independent_set(small_graph, solution)
        assert len(solution) >= 1

    def test_trace_records_lemma_2_2_invariants(self):
        g = assign_node_weights(gnp_graph(12, 0.3, seed=6), 8, seed=7)
        trace = []
        sequential_local_ratio(g, selector=random_mis_selector(8),
                               trace=trace)
        assert trace
        for record in trace:
            weights = record["weights"]
            reduced = record["reduced"]
            residual = record["residual"]
            for v in record["reduced"]:
                assert reduced[v] + residual[v] == pytest.approx(weights[v])
            for u in record["set"]:
                assert reduced[u] == pytest.approx(0.0)

    def test_missing_weights_rejected(self):
        g = gnp_graph(5, 0.5, seed=0)
        with pytest.raises(InvalidInstance):
            sequential_local_ratio(g, weights={0: 1.0})

    def test_empty_graph(self):
        assert sequential_local_ratio(nx.Graph()) == set()

    @given(st.integers(min_value=0, max_value=25))
    @settings(max_examples=10, deadline=None)
    def test_property_delta_approx(self, seed):
        g = assign_node_weights(gnp_graph(10, 0.35, seed=seed), 8,
                                seed=seed)
        solution = sequential_local_ratio(
            g, selector=random_mis_selector(seed + 50)
        )
        check_independent_set(g, solution)
        delta = max(1, max_degree(g))
        assert delta * mwis_weight(g, solution) >= mwis_weight(
            g, exact_mwis(g)
        )
