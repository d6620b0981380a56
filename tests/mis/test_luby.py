"""Tests for Luby's MIS node program."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.congest import SynchronousNetwork
from repro.graphs import (
    check_independent_set,
    complete_graph,
    empty_graph,
    gnp_graph,
    path_graph,
    star_graph,
)
from repro.mis import luby_mis


class TestLubyCorrectness:
    def test_independence_and_maximality(self, topology):
        mis, _ = luby_mis(topology, seed=1)
        check_independent_set(topology, mis, require_maximal=True)

    @pytest.mark.parametrize("seed", range(5))
    def test_many_seeds(self, seed):
        g = gnp_graph(40, 0.15, seed=seed)
        mis, _ = luby_mis(g, seed=seed)
        check_independent_set(g, mis, require_maximal=True)

    def test_complete_graph_single_winner(self):
        mis, _ = luby_mis(complete_graph(10), seed=2)
        assert len(mis) == 1

    def test_isolated_nodes_always_join(self):
        g = empty_graph(6)
        mis, rounds = luby_mis(g, seed=0)
        assert mis == set(range(6))
        assert rounds <= 2

    def test_star_center_or_all_leaves(self):
        mis, _ = luby_mis(star_graph(7), seed=3)
        assert mis == {0} or mis == set(range(1, 8))

    @given(st.integers(min_value=0, max_value=40))
    @settings(max_examples=15, deadline=None)
    def test_property_random_graphs(self, seed):
        g = gnp_graph(18, 0.25, seed=seed)
        mis, _ = luby_mis(g, seed=seed + 100)
        check_independent_set(g, mis, require_maximal=True)


class TestLubyRounds:
    def test_rounds_grow_slowly(self):
        """O(log n) phases: going 16 -> 256 nodes should not blow up."""

        small, small_rounds = luby_mis(gnp_graph(16, 0.3, seed=1), seed=1)
        big, big_rounds = luby_mis(gnp_graph(256, 0.02, seed=1), seed=1)
        assert big_rounds <= 8 * max(1, small_rounds)

    def test_runs_on_shared_network(self):
        g = path_graph(8)
        net = SynchronousNetwork(g, seed=4)
        mis, rounds = luby_mis(g, network=net)
        check_independent_set(g, mis, require_maximal=True)
        assert net.metrics.rounds == rounds > 0

    def test_deterministic_given_seed(self):
        g = gnp_graph(30, 0.2, seed=5)
        a, _ = luby_mis(g, seed=9)
        b, _ = luby_mis(g, seed=9)
        assert a == b
