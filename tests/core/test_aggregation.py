"""Tests for Theorem 2.8's line-graph simulation cost.

Theorem 2.9 (Algorithm 2 is a local aggregation algorithm) is checked
against the real ``MaxISLayersProgram`` in ``test_theorem_2_9.py``.
"""

from repro.core import theorem_2_8_simulation_cost
from repro.graphs import gnp_graph, random_regular_graph, star_graph


class TestTheorem28Cost:
    def test_star_naive_load_scales_with_degree(self):
        costs = [theorem_2_8_simulation_cost(star_graph(d)).naive_max_load
                 for d in (4, 8, 16)]
        assert costs[0] < costs[1] < costs[2]

    def test_aggregated_load_is_two_everywhere(self):
        for graph in (star_graph(10), gnp_graph(20, 0.3, seed=1),
                      random_regular_graph(4, 16, seed=2)):
            cost = theorem_2_8_simulation_cost(graph)
            assert cost.aggregated_max_load == 2

    def test_naive_dominates_aggregated(self):
        g = random_regular_graph(6, 20, seed=3)
        cost = theorem_2_8_simulation_cost(g)
        assert cost.naive_max_load >= cost.aggregated_max_load
        assert cost.naive_total >= cost.aggregated_total

    def test_empty_graph(self):
        import networkx as nx

        cost = theorem_2_8_simulation_cost(nx.Graph())
        assert cost.naive_max_load == 0
