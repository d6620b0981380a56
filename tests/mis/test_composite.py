"""Tests for the nearly-maximal IS + Luby composite MIS."""

import pytest

from repro.graphs import (
    check_independent_set,
    complete_graph,
    empty_graph,
    gnp_graph,
)
from repro.mis import nmis_plus_luby_mis


class TestCompositeMis:
    def test_true_mis(self, topology):
        mis, rounds = nmis_plus_luby_mis(topology, seed=3)
        check_independent_set(topology, mis, require_maximal=True)
        assert rounds > 0

    @pytest.mark.parametrize("seed", range(5))
    def test_random_graphs(self, seed):
        g = gnp_graph(35, 0.15, seed=seed)
        mis, _ = nmis_plus_luby_mis(g, seed=seed)
        check_independent_set(g, mis, require_maximal=True)

    def test_complete_graph(self):
        mis, _ = nmis_plus_luby_mis(complete_graph(12), seed=4)
        assert len(mis) == 1

    def test_isolated_nodes(self):
        mis, _ = nmis_plus_luby_mis(empty_graph(7), seed=5)
        assert mis == set(range(7))

    def test_short_nmis_stage_still_yields_mis(self):
        """Even a 1-iteration NMIS stage must produce a valid MIS after
        cleanup (the cleanup bears the load)."""

        g = gnp_graph(30, 0.2, seed=6)
        mis, _ = nmis_plus_luby_mis(g, nmis_iterations=1, seed=7)
        check_independent_set(g, mis, require_maximal=True)
