"""Tests for Algorithm 3 — coloring-based deterministic MaxIS."""

import pytest

from repro.api import Instance, solve
from repro.core import maxis_coloring_phases
from repro.graphs import (
    assign_node_weights,
    check_independent_set,
    cycle_graph,
    gnp_graph,
    max_degree,
    path_graph,
    star_graph,
)
from repro.mis import exact_mwis, mwis_weight
from repro.mis.coloring import delta_plus_one_coloring
from repro.utils import drain


def coloring_report(graph):
    """Algorithm 3 through the facade (it is deterministic)."""

    return solve(Instance(graph), "maxis-coloring")


class TestCorrectness:
    def test_independent_output(self, weighted_graph):
        result = coloring_report(weighted_graph)
        check_independent_set(weighted_graph, result.solution)

    def test_output_need_not_be_maximal(self):
        """The known non-maximality instance (see test_maxis_layers):
        node 3's weight is consumed by candidate 4, which is knocked
        out by 5 — the Δ-approximation still holds."""

        g = assign_node_weights(gnp_graph(6, 0.3, seed=82), 6,
                                scheme="uniform", seed=82)
        result = coloring_report(g)
        assert 3 not in result.solution
        assert not any(u in result.solution
                       for u in g.neighbors(3))
        optimum = mwis_weight(g, exact_mwis(g))
        assert max_degree(g) * result.objective >= optimum

    @pytest.mark.parametrize("seed", range(5))
    def test_delta_approximation(self, seed):
        g = assign_node_weights(gnp_graph(14, 0.3, seed=seed), 32,
                                seed=seed + 1)
        result = coloring_report(g)
        optimum = mwis_weight(g, exact_mwis(g))
        delta = max(1, max_degree(g))
        assert delta * result.objective >= optimum

    def test_fully_deterministic(self, weighted_graph):
        a = drain(maxis_coloring_phases(weighted_graph))
        b = drain(maxis_coloring_phases(weighted_graph))
        assert a.independent_set == b.independent_set
        assert a.local_ratio_rounds == b.local_ratio_rounds

    def test_star_trap(self):
        g = assign_node_weights(star_graph(6), 40, scheme="star-trap")
        result = coloring_report(g)
        assert result.solution
        optimum = mwis_weight(g, exact_mwis(g))
        assert max_degree(g) * result.objective >= optimum

    def test_path_optimal_unweighted(self):
        g = path_graph(7)
        result = coloring_report(g)
        # Δ = 2 so the guarantee is a 2-approx; on a path the local
        # ratio pick is usually optimal or near it.
        assert 2 * len(result.solution) >= 4

    def test_reuses_supplied_coloring(self, weighted_graph):
        coloring = delta_plus_one_coloring(weighted_graph)
        result = drain(maxis_coloring_phases(weighted_graph,
                                             coloring=coloring))
        assert result.coloring is coloring


class TestRounds:
    def test_local_ratio_rounds_scale_with_palette(self):
        """Removal needs at most one sweep per color class (O(Δ))."""

        g = assign_node_weights(cycle_graph(40), 16, seed=1)  # Δ = 2
        result = drain(maxis_coloring_phases(g))
        # palette = 3; the cascade is short on a cycle.
        assert result.local_ratio_rounds <= 8 * (result.coloring.palette + 2)

    def test_accounting_properties(self, weighted_graph):
        result = drain(maxis_coloring_phases(weighted_graph))
        assert result.measured_rounds >= result.local_ratio_rounds
        assert result.accounted_rounds >= result.local_ratio_rounds
        delta = max_degree(weighted_graph)
        assert result.coloring.accounted_bek14_rounds >= delta
