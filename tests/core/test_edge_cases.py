"""Edge-case coverage across core algorithms: degenerate inputs,
structured extremes, and parameter boundaries."""

import networkx as nx
from repro.api import Instance, solve
from repro.core import (
    LayerTrace,
    bucketed_constant_approx_mwm,
    enumerate_augmenting_paths,
    fast_matching_2eps,
    fast_matching_weighted_2eps,
    nearly_maximal_hypergraph_matching,
    weight_group_matching,
)
from repro.graphs import (
    assign_edge_weights,
    assign_node_weights,
    complete_graph,
    cycle_graph,
    empty_graph,
    layered_graph,
    path_graph,
    star_graph,
)

from local_ratio_oracle import sequential_local_ratio


class TestDegenerateGraphs:
    def test_maxis_single_edge(self):
        g = assign_node_weights(path_graph(2), 4, seed=1)
        for result in (
            solve(Instance(g, seed=2), "maxis-layers"),
            solve(Instance(g), "maxis-coloring"),
        ):
            assert len(result.solution) == 1

    def test_matching_two_nodes(self):
        g = assign_edge_weights(path_graph(2), 3, seed=1)
        assert len(solve(Instance(g), "matching-lines").solution) == 1
        assert len(weight_group_matching(g).matching) == 1
        assert len(fast_matching_2eps(g).matching) == 1

    def test_all_isolated(self):
        g = assign_node_weights(empty_graph(6), 8, seed=1)
        result = solve(Instance(g, seed=2), "maxis-layers")
        assert result.solution == set(range(6))
        matching = solve(Instance(empty_graph(6)), "matching-oneeps")
        assert matching.size == 0

    def test_one_eps_on_empty_graph(self):
        result = solve(Instance(empty_graph(4), eps=1.0),
                       "matching-oneeps-congest")
        assert result.size == 0


class TestStructuredExtremes:
    def test_complete_graph_maxis_picks_one(self):
        g = assign_node_weights(complete_graph(8), 16, seed=2)
        result = solve(Instance(g, seed=3), "maxis-layers")
        assert len(result.solution) == 1

    def test_even_cycle_matching_near_perfect(self):
        g = cycle_graph(12)
        result = fast_matching_2eps(g, eps=0.5, seed=4)
        assert len(result.matching) >= 3  # opt=6, bound 2.5

    def test_star_matching_is_single_edge(self):
        g = assign_edge_weights(star_graph(9), 8, seed=5)
        for matching in (
            solve(Instance(g, seed=6), "matching-lines").solution,
            weight_group_matching(g, seed=6).matching,
        ):
            assert len(matching) == 1

    def test_layered_chain_maxis(self):
        g = layered_graph(4, 3)
        for v, data in g.nodes(data=True):
            g.nodes[v]["weight"] = 2 ** data["layer"]
        result = solve(Instance(g, seed=7), "maxis-layers",
                       trace=LayerTrace())
        # The top layer always survives entirely (no higher reducers).
        top_nodes = {v for v, d in g.nodes(data=True) if d["layer"] == 3}
        assert top_nodes <= result.solution

    def test_uniform_weights_reduce_to_unweighted(self):
        g = assign_node_weights(cycle_graph(9), 5, scheme="constant")
        result = solve(Instance(g), "maxis-coloring")
        assert 2 * len(result.solution) >= 4  # Δ=2 bound on C9


class TestParameterBoundaries:
    def test_eps_one_is_valid(self):
        g = nx.Graph([(0, 1), (1, 2), (2, 3)])
        result = solve(Instance(g, eps=1.0, seed=1), "matching-oneeps")
        assert result.size >= 1

    def test_tiny_weights_single_bucket(self):
        g = assign_edge_weights(cycle_graph(8), 1, scheme="constant")
        matching = bucketed_constant_approx_mwm(g, eps=0.5, seed=2)
        assert matching

    def test_huge_weight_range(self):
        g = path_graph(6)
        weights = {(0, 1): 1, (1, 2): 10**6, (2, 3): 1, (3, 4): 10**6,
                   (4, 5): 1}
        nx.set_edge_attributes(g, weights, "weight")
        result = fast_matching_weighted_2eps(g, eps=0.5, seed=3)
        assert result.weight >= 2 * 10**6 / 2.5

    def test_sequential_lr_with_negative_intermediate_weights(self):
        """Theorem 2.1 explicitly allows w1 to go negative; the
        implementation must handle simultaneous multi-candidate
        reductions driving shared neighbors far below zero."""

        g = star_graph(5)
        weights = {0: 3.0, **{i: 10.0 for i in range(1, 6)}}
        solution = sequential_local_ratio(g, weights=weights)
        assert solution == set(range(1, 6))

    def test_hypergraph_single_vertex_edges_conflict(self):
        edges = [frozenset({0}), frozenset({0}), frozenset({0})]
        result = nearly_maximal_hypergraph_matching(edges, rank=1, seed=1)
        assert len(result.matched_edges) == 1

    def test_enumerate_paths_on_clique(self):
        g = complete_graph(6)
        paths = enumerate_augmenting_paths(g, set(), 1)
        assert len(paths) == 15
