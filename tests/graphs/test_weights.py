"""Tests for weight assignment schemes."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import InvalidInstance
from repro.graphs import (
    assign_edge_weights,
    assign_node_weights,
    edge_weight,
    gnp_graph,
    max_node_weight,
    node_weight,
    star_graph,
)


class TestNodeWeights:
    @pytest.mark.parametrize("scheme", [
        "uniform", "constant", "geometric", "degree",
    ])
    def test_weights_in_range(self, scheme):
        g = assign_node_weights(gnp_graph(20, 0.2, seed=1), 32,
                                scheme=scheme, seed=2)
        for v in g.nodes:
            assert 1 <= node_weight(g, v) <= 32

    def test_constant_scheme(self):
        g = assign_node_weights(gnp_graph(10, 0.2, seed=1), 7,
                                scheme="constant")
        assert all(node_weight(g, v) == 7 for v in g.nodes)

    def test_deterministic(self):
        a = assign_node_weights(gnp_graph(15, 0.2, seed=1), 64, seed=9)
        b = assign_node_weights(gnp_graph(15, 0.2, seed=1), 64, seed=9)
        assert all(node_weight(a, v) == node_weight(b, v) for v in a.nodes)

    def test_star_trap_profile(self):
        """The §1.1 counterexample: hub heavier than any neighbor but
        lighter than their sum."""

        g = assign_node_weights(star_graph(6), 40, scheme="star-trap")
        hub = 0
        neighbor_weights = [node_weight(g, u) for u in g.neighbors(hub)]
        assert node_weight(g, hub) > max(neighbor_weights)
        assert node_weight(g, hub) < sum(neighbor_weights)

    def test_unknown_scheme_rejected(self):
        with pytest.raises(InvalidInstance):
            assign_node_weights(gnp_graph(5, 0.5, seed=0), 4, scheme="nope")

    def test_invalid_max_weight(self):
        with pytest.raises(InvalidInstance):
            assign_node_weights(gnp_graph(5, 0.5, seed=0), 0)

    def test_default_weight_is_one(self):
        g = gnp_graph(5, 0.5, seed=0)
        assert node_weight(g, 0) == 1
        assert max_node_weight(g) == 1

    @given(st.integers(min_value=1, max_value=10**4))
    @settings(max_examples=20, deadline=None)
    def test_geometric_power_of_two_shape(self, w):
        g = assign_node_weights(gnp_graph(12, 0.2, seed=0), w,
                                scheme="geometric", seed=1)
        assert max_node_weight(g) <= w


class TestEdgeWeights:
    @pytest.mark.parametrize("scheme", ["uniform", "constant", "bimodal"])
    def test_weights_in_range(self, scheme):
        g = assign_edge_weights(gnp_graph(15, 0.3, seed=2), 16,
                                scheme=scheme, seed=3)
        for u, v in g.edges:
            assert 1 <= edge_weight(g, u, v) <= 16

    def test_bimodal_has_both_classes(self):
        g = assign_edge_weights(gnp_graph(30, 0.3, seed=2), 100,
                                scheme="bimodal", seed=3)
        weights = {edge_weight(g, u, v) for u, v in g.edges}
        assert weights == {1, 100}

    def test_unknown_scheme_rejected(self):
        with pytest.raises(InvalidInstance):
            assign_edge_weights(gnp_graph(5, 0.5, seed=0), 4, scheme="nope")
