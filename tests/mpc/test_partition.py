"""Topology defaults and node partitioning."""

from __future__ import annotations

import math

import pytest

from repro.graphs import gnp_graph
from repro.mpc import (
    MPCNetwork,
    default_topology,
    partition_nodes,
)


class TestDefaultTopology:
    def test_defaults_to_sqrt_n_memory(self):
        machines, delta = default_topology(100, None, None)
        assert delta == 0.5
        assert machines == math.ceil(100 ** 0.5)

    def test_machines_derived_from_delta(self):
        machines, delta = default_topology(256, None, 0.75)
        assert delta == 0.75
        assert machines == math.ceil(256 ** 0.25)

    def test_explicit_values_pass_through(self):
        assert default_topology(100, 7, 0.6) == (7, 0.6)


class TestPartitionNodes:
    def test_deterministic_and_balanced(self):
        nodes = list(range(40))
        assignment = partition_nodes(nodes, 8)
        again = partition_nodes(reversed(nodes), 8)
        assert assignment == again
        sizes = [sum(1 for m in assignment.values() if m == i)
                 for i in range(8)]
        assert max(sizes) - min(sizes) <= 1
        assert sum(sizes) == 40

    def test_every_machine_index_in_range(self):
        assignment = partition_nodes(range(11), 3)
        assert set(assignment.values()) <= {0, 1, 2}


class TestTopologyValidation:
    def test_capacity_formula(self):
        graph = gnp_graph(64, 0.1, seed=0)
        network = MPCNetwork(graph, delta=0.5, capacity_factor=8.0)
        assert network.capacity == math.ceil(8.0 * 64 ** 0.5)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_tiny_graphs_get_sane_topology(self, n):
        graph = gnp_graph(n, 0.5, seed=0)
        network = MPCNetwork(graph)
        assert network.machines >= 1
        assert network.capacity >= 1
