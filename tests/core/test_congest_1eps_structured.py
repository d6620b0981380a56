"""Structured-instance coverage for the CONGEST (1+ε) machinery:
perfect-matching recovery on regular bipartite graphs and weighted
property sweeps for the bucketed pipeline."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.api import Instance, solve
from repro.core import (
    bipartite_matching_1eps_phases,
    congest_matching_1eps_stages,
    fast_matching_weighted_2eps,
)
from repro.graphs import (
    assign_edge_weights,
    bipartite_regular_graph,
    check_matching,
    cycle_graph,
    gnp_graph,
)
from repro.matching import bipartite_sides, optimum_weight
from repro.utils import drain


class TestPerfectMatchingRecovery:
    @pytest.mark.parametrize("seed", range(3))
    def test_regular_bipartite_has_perfect_matching(self, seed):
        """Hall's theorem: d-regular bipartite graphs have a perfect
        matching; the (1+ε) phases must recover (almost) all of it."""

        g = bipartite_regular_graph(10, 3, seed=seed)
        a, b = bipartite_sides(g)
        matching, deactivated = drain(bipartite_matching_1eps_phases(
            g, a, b, eps=0.5, seed=seed,
        ))
        check_matching(g, [tuple(e) for e in matching])
        assert 1.5 * (len(matching) + len(deactivated)) >= 10

    def test_even_cycle_general_graph(self):
        g = cycle_graph(12)
        result = drain(congest_matching_1eps_stages(g, eps=0.5, seed=1))
        check_matching(g, [tuple(e) for e in result.matching])
        assert 1.5 * (result.cardinality + len(result.deactivated)) >= 6

    def test_matching_only_grows_across_stages(self):
        """Stages replace stage-local matchings with augmented ones, so
        the global matching can only grow."""

        g = gnp_graph(16, 0.25, seed=2)
        sizes = []
        for stages in (1, 2, 4):
            result = solve(Instance(g, eps=0.5, seed=3),
                           "matching-oneeps-congest", stages=stages)
            sizes.append(result.size)
        assert sizes == sorted(sizes)


class TestWeightedPipelineProperty:
    @given(st.integers(min_value=0, max_value=20))
    @settings(max_examples=8, deadline=None)
    def test_weighted_2eps_property(self, seed):
        g = assign_edge_weights(gnp_graph(10, 0.4, seed=seed), 32,
                                seed=seed)
        result = fast_matching_weighted_2eps(g, eps=0.5, seed=seed)
        check_matching(g, [tuple(e) for e in result.matching])
        assert 2.5 * result.weight >= optimum_weight(g)
