"""Validators for algorithm outputs (independent sets, matchings, colorings).

These raise :class:`~repro.errors.AlgorithmContractViolation` with a
precise description of the offending structure.  A registry run is
checked once, at its end, by :meth:`~repro.api.SolveReport.certify`;
a result drained straight from a core phase generator is not checked
until its caller calls one of these.  They walk the graph's adjacency
dicts (``graph._adj``, as :class:`~repro.congest.array_network.GraphCSR`
does) rather than its views, and build no container the check does
not need.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Set, Tuple

import networkx as nx

from ..errors import AlgorithmContractViolation


def check_independent_set(graph: nx.Graph, nodes: Iterable[Hashable],
                          require_maximal: bool = False) -> None:
    """Verify that ``nodes`` is an independent set of ``graph``.

    With ``require_maximal`` also verify maximality (every node outside
    the set has a neighbor inside it).
    """

    adjacency = graph._adj
    chosen = set(nodes)
    missing = [v for v in chosen if v not in adjacency]
    if missing:
        raise AlgorithmContractViolation(
            f"independent set contains non-nodes: {sorted(map(repr, missing))[:5]}"
        )
    isdisjoint = chosen.isdisjoint
    for u in chosen:
        if not isdisjoint(adjacency[u]):
            v = next(v for v in adjacency[u] if v in chosen)
            raise AlgorithmContractViolation(
                f"independent set contains adjacent nodes {u!r} and {v!r}"
            )
    if require_maximal:
        for v, neighbors in adjacency.items():
            if v not in chosen and isdisjoint(neighbors):
                raise AlgorithmContractViolation(
                    f"set is not maximal: {v!r} has no neighbor in the set"
                )


def check_matching(graph: nx.Graph,
                   edges: Iterable[Tuple[Hashable, Hashable]],
                   require_maximal: bool = False) -> None:
    """Verify that ``edges`` is a matching of ``graph``.  An edge is
    any two-item iterable, so a matching of frozensets is checked as
    it is.

    With ``require_maximal`` also verify maximality (no remaining edge has
    both endpoints unmatched).
    """

    adjacency = graph._adj
    matched_nodes: Set[Hashable] = set()
    for u, v in edges:
        if u not in adjacency or v not in adjacency[u]:
            raise AlgorithmContractViolation(
                f"matching contains non-edge ({u!r}, {v!r})"
            )
        if u in matched_nodes or v in matched_nodes:
            raise AlgorithmContractViolation(
                f"matching edges share an endpoint at ({u!r}, {v!r})"
            )
        matched_nodes.add(u)
        matched_nodes.add(v)
    if require_maximal:
        for u, v in graph.edges:
            if u not in matched_nodes and v not in matched_nodes:
                raise AlgorithmContractViolation(
                    f"matching is not maximal: edge ({u!r}, {v!r}) is free"
                )


def check_coloring(graph: nx.Graph, colors: dict,
                   palette_size: int | None = None) -> None:
    """Verify that ``colors`` is a proper coloring; with
    ``palette_size``, also that every color is an int in
    ``range(palette_size)``."""

    adjacency = graph._adj
    for v in adjacency:
        if v not in colors:
            raise AlgorithmContractViolation(f"node {v!r} is uncolored")
    # Row by row in node order, which meets the first clashing edge in
    # ``graph.edges`` order: an edge back to an earlier row was met
    # there already.
    for u, neighbors in adjacency.items():
        color = colors[u]
        for v in neighbors:
            if colors[v] == color:
                raise AlgorithmContractViolation(
                    f"adjacent nodes {u!r}, {v!r} share color {color!r}"
                )
    if palette_size is not None:
        for v in graph.nodes:
            color = colors[v]
            if (not isinstance(color, int) or isinstance(color, bool)
                    or not 0 <= color < palette_size):
                raise AlgorithmContractViolation(
                    f"node {v!r} has color {color!r}, "
                    f"outside range({palette_size})"
                )


def matched_nodes(matching: Iterable) -> Set[Hashable]:
    """Return the set of endpoints of a matching given as edge pairs."""

    nodes: Set[Hashable] = set()
    for edge in matching:
        u, v = tuple(edge)
        nodes.update((u, v))
    return nodes


def is_augmenting_path(graph: nx.Graph, matching: Set[frozenset],
                       path: Tuple[Hashable, ...]) -> bool:
    """Check the augmenting-path conditions of Appendix B.2 for ``path``.

    The path must alternate unmatched/matched/... edges, start and end at
    unmatched (free) vertices, be simple, and consist of graph edges.
    """

    if len(path) < 2 or len(set(path)) != len(path):
        return False
    covered = matched_nodes(matching)
    if path[0] in covered or path[-1] in covered:
        return False
    for i in range(len(path) - 1):
        u, v = path[i], path[i + 1]
        if not graph.has_edge(u, v):
            return False
        edge_matched = frozenset((u, v)) in matching
        if i % 2 == 0 and edge_matched:
            return False
        if i % 2 == 1 and not edge_matched:
            return False
    return True
