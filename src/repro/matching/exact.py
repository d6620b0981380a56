"""Exact matching oracles and the bipartite side split.

The paper measures approximation factors against the true optimum; the
oracles wrap networkx's Edmonds matching and return the maximum-weight
and maximum-cardinality matchings as sets of frozensets, the matching
representation used everywhere else in this library.
:func:`bipartite_sides` splits a bipartite graph into the (A, B) sides
that the bipartite matchers take.
"""

from __future__ import annotations

from typing import Hashable, Set, Tuple

import networkx as nx

from ..errors import InvalidInstance
from .greedy import matching_weight


def bipartite_sides(graph: nx.Graph) -> Tuple[Set[Hashable], Set[Hashable]]:
    """Return the (A, B) sides using node attribute ``side`` or 2-coloring."""

    a_side = {v for v, d in graph.nodes(data=True) if d.get("side") == "A"}
    b_side = {v for v, d in graph.nodes(data=True) if d.get("side") == "B"}
    if a_side or b_side:
        if a_side | b_side != set(graph.nodes):
            raise InvalidInstance("every node needs a side attribute")
        return a_side, b_side
    if not nx.is_bipartite(graph):
        raise InvalidInstance("graph is not bipartite")
    a_side, b_side = nx.bipartite.sets(graph)
    return set(a_side), set(b_side)


def exact_max_weight_matching(graph: nx.Graph) -> Set[frozenset]:
    """Maximum-weight matching (not necessarily maximum cardinality)."""

    raw = nx.max_weight_matching(graph, maxcardinality=False, weight="weight")
    return {frozenset(edge) for edge in raw}


def exact_max_cardinality_matching(graph: nx.Graph) -> Set[frozenset]:
    """Maximum-cardinality matching (weights ignored)."""

    unit = nx.Graph()
    unit.add_nodes_from(graph.nodes)
    unit.add_edges_from(graph.edges)
    raw = nx.max_weight_matching(unit, maxcardinality=True, weight=None)
    return {frozenset(edge) for edge in raw}


def optimum_weight(graph: nx.Graph) -> int:
    """Weight of the maximum-weight matching."""

    return matching_weight(graph, exact_max_weight_matching(graph))


def optimum_cardinality(graph: nx.Graph) -> int:
    """Size of the maximum-cardinality matching."""

    return len(exact_max_cardinality_matching(graph))
