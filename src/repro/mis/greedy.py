"""The exact MWIS oracle.

:func:`exact_mwis` is a branch-and-bound maximum-weight independent
set, the optimum that ``SolveReport`` and the experiments measure
approximation ratios against on small instances (exponential time; keep
n below ~40).  :func:`mwis_weight` sums a node set's weights.
"""

from __future__ import annotations

from typing import Dict, Hashable, Set

import networkx as nx

from ..graphs import node_weight


def exact_mwis(graph: nx.Graph) -> Set[Hashable]:
    """Exact maximum-weight independent set by branch and bound.

    Branches on a maximum-degree vertex v: either exclude v, or include v
    and delete N[v].  Prunes with the trivial total-weight upper bound.
    Intended for evaluation oracles on small graphs.
    """

    weights: Dict[Hashable, int] = {
        v: node_weight(graph, v) for v in graph.nodes
    }
    adjacency: Dict[Hashable, Set[Hashable]] = {
        v: set(graph.neighbors(v)) for v in graph.nodes
    }

    best: Dict[str, object] = {"weight": -1, "set": set()}

    def search(active: Set[Hashable], current: Set[Hashable],
               current_weight: int) -> None:
        remaining_weight = sum(weights[v] for v in active)
        if current_weight + remaining_weight <= best["weight"]:
            return
        if not active:
            if current_weight > best["weight"]:
                best["weight"] = current_weight
                best["set"] = set(current)
            return
        # Peel isolated-in-subgraph vertices greedily: always optimal.
        isolated = [v for v in active if not (adjacency[v] & active)]
        if isolated:
            search(active - set(isolated), current | set(isolated),
                   current_weight + sum(weights[v] for v in isolated))
            return
        v = max(active, key=lambda u: (len(adjacency[u] & active), repr(u)))
        # Branch 1: include v.
        search(active - {v} - adjacency[v], current | {v},
               current_weight + weights[v])
        # Branch 2: exclude v.
        search(active - {v}, current, current_weight)

    search(set(graph.nodes), set(), 0)
    return set(best["set"])


def mwis_weight(graph: nx.Graph, nodes) -> int:
    """Total weight of a node set under the graph's node weights."""

    return sum(node_weight(graph, v) for v in nodes)
