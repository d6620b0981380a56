"""Tests for the deterministic distributed coloring pipeline."""

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import AlgorithmContractViolation
from repro.graphs import (
    check_coloring,
    empty_graph,
    gnp_graph,
    max_degree,
    random_regular_graph,
    star_graph,
)
from repro.mis import (
    delta_plus_one_coloring,
    linial_coloring,
    linial_step,
    reduce_palette,
)
from repro.mis import coloring
from repro.mis.coloring import _linial_parameters


class TestLinialStep:
    def test_single_step_reduces_and_stays_proper(self):
        g = gnp_graph(60, 0.08, seed=1)
        colors = {v: i for i, v in enumerate(sorted(g.nodes))}
        q, k = _linial_parameters(len(colors), max_degree(g))
        new = linial_step(g, colors, q, k)
        check_coloring(g, new)
        assert max(new.values()) < q * q

    def test_parameters_satisfy_linial_condition(self):
        for m, delta in [(100, 4), (1000, 8), (50, 3)]:
            q, k = _linial_parameters(m, delta)
            assert q > delta * (k - 1)
            assert q ** k >= m


class TestLinialColoring:
    @pytest.mark.parametrize("n,p", [(30, 0.1), (80, 0.05), (50, 0.12)])
    def test_proper_output(self, n, p):
        g = gnp_graph(n, p, seed=2)
        colors, rounds, bound = linial_coloring(g)
        check_coloring(g, colors)
        assert max(colors.values(), default=0) < bound

    def test_rounds_are_log_star_ish(self):
        g = gnp_graph(200, 0.02, seed=3)
        _, rounds, _ = linial_coloring(g)
        assert rounds <= 6  # log* 200 plus slack


class TestReducePalette:
    def test_reduction_to_delta_plus_one(self):
        g = gnp_graph(40, 0.1, seed=4)
        colors = {v: i for i, v in enumerate(sorted(g.nodes))}
        target = max_degree(g) + 1
        reduced, rounds = reduce_palette(g, colors, target)
        check_coloring(g, reduced, palette_size=target)
        assert rounds == 40 - target

    def test_cannot_go_below_delta_plus_one(self):
        g = star_graph(5)
        colors = {v: 0 if v == 0 else 1 for v in g.nodes}  # hub vs leaves
        with pytest.raises(AlgorithmContractViolation):
            reduce_palette(g, colors, 2)


class TestFullPipeline:
    def test_proper_delta_plus_one(self, topology):
        result = delta_plus_one_coloring(topology)
        check_coloring(topology, result.colors, palette_size=result.palette)
        assert result.palette == max_degree(topology) + 1

    def test_deterministic(self):
        g = gnp_graph(35, 0.12, seed=5)
        a = delta_plus_one_coloring(g)
        b = delta_plus_one_coloring(g)
        assert a.colors == b.colors

    def test_round_accounting_fields(self):
        g = random_regular_graph(4, 30, seed=6)
        result = delta_plus_one_coloring(g)
        assert result.measured_rounds == (
            result.linial_rounds + result.reduction_rounds
        )
        assert result.accounted_bek14_rounds >= max_degree(g)

    def test_empty_graph(self):
        result = delta_plus_one_coloring(empty_graph(4))
        assert set(result.colors.values()) == {0}

    @given(st.integers(min_value=0, max_value=30))
    @settings(max_examples=10, deadline=None)
    def test_property_random(self, seed):
        g = gnp_graph(20, 0.2, seed=seed)
        result = delta_plus_one_coloring(g)
        check_coloring(g, result.colors, palette_size=result.palette)

    def test_never_improper_after_an_in_place_rewire(self):
        # Swapping (0,1),(2,3) for (0,2),(1,3) keeps every degree, so
        # the cached CSR the numpy path colors stays a cache hit and
        # its old colors clash on (1,3).  The final check runs against
        # the graph itself and refuses them.
        g = nx.cycle_graph(6)
        delta_plus_one_coloring(g)
        g.remove_edges_from([(0, 1), (2, 3)])
        g.add_edges_from([(0, 2), (1, 3)])
        if coloring.np is None:
            result = delta_plus_one_coloring(g)
            check_coloring(g, result.colors, palette_size=3)
        else:
            with pytest.raises(AlgorithmContractViolation):
                delta_plus_one_coloring(g)
