"""Validators for algorithm outputs (independent sets, matchings, colorings).

These raise :class:`~repro.errors.AlgorithmContractViolation` with a
precise description of the offending structure; tests and the benchmark
harness call them after every algorithm execution.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Set, Tuple

import networkx as nx

from ..errors import AlgorithmContractViolation


def check_independent_set(graph: nx.Graph, nodes: Iterable[Hashable],
                          require_maximal: bool = False) -> Set[Hashable]:
    """Verify that ``nodes`` is an independent set of ``graph``.

    With ``require_maximal`` also verify maximality (every node outside
    the set has a neighbor inside it).
    """

    chosen = set(nodes)
    missing = chosen - set(graph.nodes)
    if missing:
        raise AlgorithmContractViolation(
            f"independent set contains non-nodes: {sorted(map(repr, missing))[:5]}"
        )
    for u in chosen:
        for v in graph.neighbors(u):
            if v in chosen:
                raise AlgorithmContractViolation(
                    f"independent set contains adjacent nodes {u!r} and {v!r}"
                )
    if require_maximal:
        for v in graph.nodes:
            if v in chosen:
                continue
            if not any(u in chosen for u in graph.neighbors(v)):
                raise AlgorithmContractViolation(
                    f"set is not maximal: {v!r} has no neighbor in the set"
                )
    return chosen


def check_matching(graph: nx.Graph,
                   edges: Iterable[Tuple[Hashable, Hashable]],
                   require_maximal: bool = False) -> Set[frozenset]:
    """Verify that ``edges`` is a matching of ``graph``.

    With ``require_maximal`` also verify maximality (no remaining edge has
    both endpoints unmatched).
    """

    matching = set()
    matched_nodes: Set[Hashable] = set()
    for u, v in edges:
        if not graph.has_edge(u, v):
            raise AlgorithmContractViolation(
                f"matching contains non-edge ({u!r}, {v!r})"
            )
        if u in matched_nodes or v in matched_nodes:
            raise AlgorithmContractViolation(
                f"matching edges share an endpoint at ({u!r}, {v!r})"
            )
        matched_nodes.update((u, v))
        matching.add(frozenset((u, v)))
    if require_maximal:
        for u, v in graph.edges:
            if u not in matched_nodes and v not in matched_nodes:
                raise AlgorithmContractViolation(
                    f"matching is not maximal: edge ({u!r}, {v!r}) is free"
                )
    return matching


def check_coloring(graph: nx.Graph, colors: dict,
                   palette_size: int | None = None) -> None:
    """Verify that ``colors`` is a proper coloring; with
    ``palette_size``, also that every color is an int in
    ``range(palette_size)``."""

    for v in graph.nodes:
        if v not in colors:
            raise AlgorithmContractViolation(f"node {v!r} is uncolored")
    for u, v in graph.edges:
        if colors[u] == colors[v]:
            raise AlgorithmContractViolation(
                f"adjacent nodes {u!r}, {v!r} share color {colors[u]!r}"
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
