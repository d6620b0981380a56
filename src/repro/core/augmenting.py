"""Hopcroft–Karp augmenting-path machinery (Appendix B.2 preliminaries).

Facts used throughout (classical, [HK73], restated in the paper):

1. a matching with no augmenting path of length ≤ 2⌈1/ε⌉+1 is a
   (1+ε)-approximation of the maximum matching;
2. augmenting along a maximal set of vertex-disjoint *shortest*
   augmenting paths strictly increases the shortest augmenting-path
   length.

This module provides path enumeration (the virtual nodes of the conflict
graph), flipping, and validity checks.  Path enumeration is exponential
in the path length in the worst case (up to Δ^ℓ paths); an optional
``cap`` bounds the work and the caller records when truncation occurred
(the paper's CONGEST algorithm of Appendix B.3 exists precisely because
materializing these paths is infeasible — we materialize them only for
the LOCAL-model algorithm on small instances).
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, Optional, Set, Tuple

import networkx as nx

from ..errors import AlgorithmContractViolation
from ..graphs import is_augmenting_path, matched_nodes

Path = Tuple[Hashable, ...]


def canonical_path(path: Path) -> Path:
    """Paths are undirected; normalize to the lexicographically smaller
    orientation so enumeration yields each path once."""

    forward = tuple(path)
    backward = tuple(reversed(path))
    return forward if repr(forward) <= repr(backward) else backward


def enumerate_augmenting_paths(
    graph: nx.Graph,
    matching: Set[frozenset],
    length: int,
    active: Optional[Set[Hashable]] = None,
    cap: Optional[int] = None,
) -> List[Path]:
    """All augmenting paths of exactly ``length`` edges (odd), deduplicated.

    ``active`` restricts the search to a node subset (deactivated nodes
    are excluded per Theorem B.4's bookkeeping).  ``cap`` stops the
    search after that many paths — callers must treat a full-cap result
    as possibly truncated.
    """

    if length % 2 == 0:
        raise AlgorithmContractViolation(
            f"augmenting paths have odd length, got {length}"
        )
    scope = set(graph.nodes) if active is None else set(active)
    covered = matched_nodes(matching)
    mate: Dict[Hashable, Hashable] = {}
    for edge in matching:
        u, v = tuple(edge)
        mate[u] = v
        mate[v] = u

    found: Set[Path] = set()
    free_nodes = sorted((v for v in scope if v not in covered), key=repr)
    for start in free_nodes:
        stack: List[Tuple[Path, bool]] = [((start,), False)]
        # ``expect_matched`` alternates: step 0 unmatched, step 1 matched...
        while stack:
            path, expect_matched = stack.pop()
            tail = path[-1]
            if len(path) == length + 1:
                if tail not in covered:
                    found.add(canonical_path(path))
                    if cap is not None and len(found) >= cap:
                        return sorted(found, key=repr)
                continue
            if expect_matched:
                nxt = mate.get(tail)
                if nxt is not None and nxt in scope and nxt not in path:
                    stack.append((path + (nxt,), False))
            else:
                for nxt in graph.neighbors(tail):
                    if nxt not in scope or nxt in path:
                        continue
                    if frozenset((tail, nxt)) in matching:
                        continue
                    # Intermediate nodes must be matched; the final node
                    # must be free — both checked on arrival.
                    if len(path) + 1 == length + 1:
                        if nxt not in covered:
                            stack.append((path + (nxt,), True))
                    elif nxt in covered:
                        stack.append((path + (nxt,), True))
    return sorted(found, key=repr)


def flip_augmenting_path(matching: Set[frozenset], path: Path
                         ) -> Set[frozenset]:
    """Return ``M ⊕ P``: remove matched path edges, add unmatched ones."""

    result = set(matching)
    for i in range(len(path) - 1):
        edge = frozenset((path[i], path[i + 1]))
        if i % 2 == 0:
            if edge in result:
                raise AlgorithmContractViolation(
                    f"path edge {tuple(edge)!r} expected unmatched"
                )
            result.add(edge)
        else:
            if edge not in result:
                raise AlgorithmContractViolation(
                    f"path edge {tuple(edge)!r} expected matched"
                )
            result.discard(edge)
    return result


def augment_with_disjoint_paths(matching: Set[frozenset],
                                paths: Iterable[Path]) -> Set[frozenset]:
    """Flip a set of pairwise vertex-disjoint augmenting paths at once."""

    seen: Set[Hashable] = set()
    result = set(matching)
    for path in paths:
        overlap = seen.intersection(path)
        if overlap:
            raise AlgorithmContractViolation(
                f"augmenting paths intersect at {sorted(map(repr, overlap))[:3]}"
            )
        seen.update(path)
        result = flip_augmenting_path(result, path)
    return result


def shortest_augmenting_path_length(
    graph: nx.Graph,
    matching: Set[frozenset],
    active: Optional[Set[Hashable]] = None,
    max_length: int = 11,
) -> Optional[int]:
    """Smallest odd ℓ ≤ max_length with an augmenting path, else None."""

    for length in range(1, max_length + 1, 2):
        if enumerate_augmenting_paths(graph, matching, length,
                                      active=active, cap=1):
            return length
    return None


def verify_hk_phase(graph: nx.Graph, matching: Set[frozenset],
                    paths: List[Path]) -> None:
    """Assert every path is a valid augmenting path for ``matching``."""

    for path in paths:
        if not is_augmenting_path(graph, matching, path):
            raise AlgorithmContractViolation(
                f"invalid augmenting path {path!r}"
            )
