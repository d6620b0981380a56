"""The sequential greedy matching baseline and the matching weight.

:func:`greedy_weighted_matching` scans edges by decreasing weight: the
classical sequential 2-approximation for maximum weight matching, the
natural comparator for the paper's distributed 2- and (2+ε)-approx
algorithms (registered as ``matching-greedy``).
"""

from __future__ import annotations

from typing import Hashable, Set

import networkx as nx

from ..graphs import edge_weight


def greedy_weighted_matching(graph: nx.Graph) -> Set[frozenset]:
    """Greedy by decreasing weight; guarantees weight >= OPT / 2."""

    order = sorted(
        graph.edges,
        key=lambda e: (-edge_weight(graph, *e), repr(e)),
    )
    matched: Set[Hashable] = set()
    matching: Set[frozenset] = set()
    for u, v in order:
        if u not in matched and v not in matched:
            matching.add(frozenset((u, v)))
            matched.update((u, v))
    return matching


def matching_weight(graph: nx.Graph, matching) -> int:
    """Total weight of a matching given as an iterable of 2-sets/pairs."""

    total = 0
    for edge in matching:
        u, v = tuple(edge)
        total += edge_weight(graph, u, v)
    return total
