"""Δ and W as a solve reads them, against networkx's own counts.

A completed MaxIS report's bound is ``Instance.max_degree`` (Δ, from
:func:`~repro.graphs.max_degree`), and Algorithm 2's round budget reads
W from :func:`~repro.graphs.max_node_weight`.  Both walk the graph's
own dicts rather than its views, so they must equal ``graph.degree()``
and the per-node weight lookup on every graph, including the cases
where an adjacency row's length is not the networkx degree (a
self-loop, which networkx counts twice), graph kinds whose degree is
not a row length, and a graph rewired in place.  No numpy is needed;
this module runs in the numpy-free CI job too.
"""

import networkx as nx
import pytest

from repro.api import Instance, solve
from repro.congest import array_network
from repro.graphs import (
    FAMILIES,
    assign_node_weights,
    max_degree,
    max_node_weight,
)


def networkx_delta(graph):
    return max((d for _, d in graph.degree()), default=0)


def per_node_w(graph):
    return max((graph.nodes[v].get("weight", 1) for v in graph), default=1)


def with_isolated_nodes():
    graph = nx.path_graph(5)
    graph.add_nodes_from([10, 11, 12])
    return graph


def looped_on_a_longest_row():
    graph = nx.star_graph(4)
    graph.add_edge(0, 0)
    return graph


def looped_below_the_longest_row():
    # Row lengths 3 (node 0) and 2 (node 1: a neighbour and itself);
    # both networkx degrees are 3, which is Δ.
    graph = nx.Graph([(0, 2), (0, 3), (0, 4), (1, 5)])
    graph.add_edge(1, 1)
    return graph


def a_lone_self_loop():
    graph = nx.empty_graph(3)
    graph.add_edge(1, 1)
    return graph


def rewired_in_place():
    # Drop (0,1) and (2,3) for (0,2) and (1,3): every degree stays.
    graph = nx.cycle_graph(6)
    graph.remove_edges_from([(0, 1), (2, 3)])
    graph.add_edges_from([(0, 2), (1, 3)])
    return graph


def rewired_into_self_loops():
    # Drop (0,1) and (2,3) for a loop on each endpoint: every row
    # length stays, but each looped node's networkx degree rises to 3.
    graph = nx.cycle_graph(6)
    graph.remove_edges_from([(0, 1), (2, 3)])
    graph.add_edges_from((v, v) for v in range(4))
    return graph


EDGE_CASES = {
    "empty": nx.Graph,
    "edgeless": lambda: nx.empty_graph(4),
    "isolated-nodes": with_isolated_nodes,
    "self-loop-on-longest-row": looped_on_a_longest_row,
    "self-loop-below-longest-row": looped_below_the_longest_row,
    "lone-self-loop": a_lone_self_loop,
    "rewired-in-place": rewired_in_place,
    "rewired-into-self-loops": rewired_into_self_loops,
    "digraph": lambda: nx.DiGraph([(0, 1), (0, 2), (2, 0), (1, 1)]),
    "multigraph": lambda: nx.MultiGraph([(0, 1), (0, 1), (1, 2), (2, 2)]),
}


def family_graphs():
    for name in sorted(FAMILIES):
        yield pytest.param(lambda name=name: FAMILIES[name](40, 7), id=name)
    for name, build in EDGE_CASES.items():
        yield pytest.param(build, id=name)


@pytest.mark.parametrize("build", family_graphs())
def test_delta_is_the_networkx_degree_maximum(build):
    graph = build()
    assert max_degree(graph) == networkx_delta(graph)
    assert Instance(graph).max_degree == networkx_delta(graph)


def test_the_self_loop_cases_are_counted_twice():
    assert max_degree(looped_on_a_longest_row()) == 6
    assert max_degree(looped_below_the_longest_row()) == 3
    assert max_degree(a_lone_self_loop()) == 2
    assert max_degree(rewired_into_self_loops()) == 3


def test_delta_follows_an_in_place_edit():
    graph = nx.path_graph(6)
    assert max_degree(graph) == 2
    graph.add_edge(0, 3)
    assert max_degree(graph) == networkx_delta(graph) == 3


@pytest.mark.skipif(array_network.np is None,
                    reason="the array backend needs numpy")
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_an_array_solve_reports_the_networkx_bound(family):
    graph = assign_node_weights(FAMILIES[family](40, 7), 64, seed=2)
    report = solve(Instance(graph, seed=3, backend="array"), "maxis-layers")
    assert report.bound == float(max(1, networkx_delta(graph)))


def partly_weighted():
    graph = nx.path_graph(6)
    graph.nodes[2]["weight"] = 9
    graph.nodes[4]["weight"] = 3
    return graph


@pytest.mark.parametrize("build", [
    *(pytest.param(lambda name=name: assign_node_weights(
        FAMILIES[name](40, 7), 1000, seed=5), id=name)
      for name in sorted(FAMILIES)),
    pytest.param(lambda: nx.path_graph(9), id="unweighted"),
    pytest.param(partly_weighted, id="partly-weighted"),
    pytest.param(with_isolated_nodes, id="isolated-nodes"),
    pytest.param(nx.Graph, id="empty"),
])
def test_w_is_the_per_node_weight_maximum(build):
    graph = build()
    assert max_node_weight(graph) == per_node_w(graph)
