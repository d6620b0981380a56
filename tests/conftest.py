"""Shared fixtures: small deterministic workloads used across the suite."""

from __future__ import annotations

import os
import sys

import pytest

from repro.graphs import (
    assign_edge_weights,
    assign_node_weights,
    cycle_graph,
    gnp_graph,
    grid_graph,
    path_graph,
    random_bipartite_graph,
    random_tree,
    star_graph,
)

# Test helpers that live beside this file (the Algorithm 1 oracle in
# local_ratio_oracle.py) import by module name from any test directory.
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

SEEDS = (0, 1, 2)


@pytest.fixture
def small_graph():
    """A 24-node sparse random graph (unweighted)."""

    return gnp_graph(24, 0.15, seed=7)


@pytest.fixture
def weighted_graph():
    """A 20-node graph with node weights in [1, 32]."""

    g = gnp_graph(20, 0.2, seed=3)
    return assign_node_weights(g, 32, seed=4)


@pytest.fixture
def edge_weighted_graph():
    """An 18-node graph with edge weights in [1, 16]."""

    g = gnp_graph(18, 0.22, seed=5)
    return assign_edge_weights(g, 16, seed=6)


@pytest.fixture
def bipartite_graph():
    """A 15+15 random bipartite graph with ``side`` attributes."""

    return random_bipartite_graph(15, 15, 0.2, seed=8)


@pytest.fixture(params=["path", "cycle", "star", "grid", "tree", "gnp"])
def topology(request):
    """A sweep over small structured topologies."""

    name = request.param
    if name == "path":
        return path_graph(12)
    if name == "cycle":
        return cycle_graph(11)
    if name == "star":
        return star_graph(9)
    if name == "grid":
        return grid_graph(4, 4)
    if name == "tree":
        return random_tree(14, seed=2)
    return gnp_graph(16, 0.2, seed=9)
