"""Graph mutations: the dynamic-graph delta vocabulary.

A :class:`Mutation` is one typed edit of a weighted graph — edge
insert/delete, edge/node weight change, node add/remove — and a
:class:`MutationBatch` is an ordered tuple of them, applied atomically
between two solver runs.  :func:`apply_batch` validates every edit
against the graph it targets *before* touching it, so a mutation
referencing an unknown node raises a typed
:class:`~repro.errors.InvalidMutation` instead of a late ``KeyError``
deep in partition/CSR code.

Applied batches are *normalized*: deletions and weight changes record
the prior value they overwrote, which makes a batch invertible
(:func:`invert_batch`) — the compat policy uses this to reconstruct
the pre-mutation graph a resume payload was fingerprinted on without
requiring the caller to keep it around.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Hashable, Iterator, Optional, Set, Tuple

import networkx as nx

from ..errors import InvalidMutation
from ..graphs.weights import edge_weight, node_weight

ADD_EDGE = "add_edge"
REMOVE_EDGE = "remove_edge"
SET_EDGE_WEIGHT = "set_edge_weight"
SET_NODE_WEIGHT = "set_node_weight"
ADD_NODE = "add_node"
REMOVE_NODE = "remove_node"

OPS = frozenset({ADD_EDGE, REMOVE_EDGE, SET_EDGE_WEIGHT,
                 SET_NODE_WEIGHT, ADD_NODE, REMOVE_NODE})
_EDGE_OPS = frozenset({ADD_EDGE, REMOVE_EDGE, SET_EDGE_WEIGHT})
_NODE_OPS = frozenset({SET_NODE_WEIGHT, ADD_NODE, REMOVE_NODE})


@dataclass(frozen=True)
class Mutation:
    """One edit: ``op`` plus its endpoint(s), new value and prior value.

    ``prior`` is filled in by :func:`apply_batch` (normalization); user
    code normally leaves it ``None``.
    """

    op: str
    u: Hashable = None
    v: Hashable = None
    weight: Optional[int] = None
    prior: Optional[int] = None

    def __post_init__(self):
        if self.op not in OPS:
            raise InvalidMutation(
                f"unknown mutation op {self.op!r} (expected one of "
                f"{sorted(OPS)})"
            )
        if self.op in _EDGE_OPS and (self.u is None or self.v is None):
            raise InvalidMutation(f"{self.op} needs both endpoints u and v")
        if self.op in _NODE_OPS and self.v is not None:
            raise InvalidMutation(f"{self.op} takes a single node u")
        if self.op in (SET_EDGE_WEIGHT, SET_NODE_WEIGHT) \
                and self.weight is None:
            raise InvalidMutation(f"{self.op} needs the new weight")

    def touched(self) -> Tuple[Hashable, ...]:
        """The node(s) this mutation references."""

        if self.op in _EDGE_OPS:
            return (self.u, self.v)
        return (self.u,)


def add_edge(u, v, weight: Optional[int] = None) -> Mutation:
    return Mutation(ADD_EDGE, u, v, weight=weight)


def remove_edge(u, v) -> Mutation:
    return Mutation(REMOVE_EDGE, u, v)


def set_edge_weight(u, v, weight: int) -> Mutation:
    return Mutation(SET_EDGE_WEIGHT, u, v, weight=weight)


def set_node_weight(u, weight: int) -> Mutation:
    return Mutation(SET_NODE_WEIGHT, u, weight=weight)


def add_node(u, weight: Optional[int] = None) -> Mutation:
    return Mutation(ADD_NODE, u, weight=weight)


def remove_node(u) -> Mutation:
    return Mutation(REMOVE_NODE, u)


@dataclass(frozen=True)
class MutationBatch:
    """An ordered, atomically-applied tuple of :class:`Mutation` edits."""

    mutations: Tuple[Mutation, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "mutations", tuple(self.mutations))
        for m in self.mutations:
            if not isinstance(m, Mutation):
                raise InvalidMutation(
                    f"MutationBatch holds Mutation objects, got "
                    f"{type(m).__name__}"
                )

    def __iter__(self) -> Iterator[Mutation]:
        return iter(self.mutations)

    def __len__(self) -> int:
        return len(self.mutations)

    def touched_nodes(self) -> Set[Hashable]:
        return {node for m in self.mutations for node in m.touched()}


def as_batch(batch) -> MutationBatch:
    """Coerce a MutationBatch / Mutation / iterable of Mutations."""

    if isinstance(batch, MutationBatch):
        return batch
    if isinstance(batch, Mutation):
        return MutationBatch((batch,))
    return MutationBatch(tuple(batch))


def _require_node(graph: nx.Graph, node, index: int, op: str) -> None:
    if node not in graph:
        raise InvalidMutation(
            f"mutation #{index} ({op}) references node {node!r}, which "
            "is absent from the base graph"
        )


def _apply_one(graph: nx.Graph, m: Mutation, index: int) -> Mutation:
    """Validate + apply one mutation in place; return it normalized."""

    if m.op == ADD_NODE:
        if m.u in graph:
            raise InvalidMutation(
                f"mutation #{index} (add_node) re-adds existing node "
                f"{m.u!r}"
            )
        graph.add_node(m.u)
        if m.weight is not None:
            graph.nodes[m.u]["weight"] = m.weight
        return m
    _require_node(graph, m.u, index, m.op)
    if m.op == REMOVE_NODE:
        prior = node_weight(graph, m.u)
        graph.remove_node(m.u)
        return replace(m, prior=prior)
    if m.op == SET_NODE_WEIGHT:
        prior = node_weight(graph, m.u)
        graph.nodes[m.u]["weight"] = m.weight
        return replace(m, prior=prior)
    _require_node(graph, m.v, index, m.op)
    if m.u == m.v:
        raise InvalidMutation(
            f"mutation #{index} ({m.op}) is a self-loop on {m.u!r}"
        )
    has_edge = graph.has_edge(m.u, m.v)
    if m.op == ADD_EDGE:
        if has_edge:
            raise InvalidMutation(
                f"mutation #{index} (add_edge) re-inserts existing edge "
                f"({m.u!r}, {m.v!r})"
            )
        graph.add_edge(m.u, m.v)
        if m.weight is not None:
            graph.edges[m.u, m.v]["weight"] = m.weight
        return m
    if not has_edge:
        raise InvalidMutation(
            f"mutation #{index} ({m.op}) targets missing edge "
            f"({m.u!r}, {m.v!r})"
        )
    prior = edge_weight(graph, m.u, m.v)
    if m.op == REMOVE_EDGE:
        graph.remove_edge(m.u, m.v)
    else:  # SET_EDGE_WEIGHT
        graph.edges[m.u, m.v]["weight"] = m.weight
    return replace(m, prior=prior)


def apply_batch(graph: nx.Graph, batch,
                record: bool = False):
    """Apply ``batch`` to a *copy* of ``graph``.

    Returns the mutated copy, or ``(copy, normalized_batch)`` with
    ``record=True`` where the normalized batch carries the prior
    weights the edits overwrote (making it invertible).  Every edit is
    validated against the graph state it meets — unknown nodes, missing
    or duplicate edges raise :class:`~repro.errors.InvalidMutation`.
    """

    batch = as_batch(batch)
    out = graph.copy()
    normalized = tuple(_apply_one(out, m, i)
                       for i, m in enumerate(batch))
    if record:
        return out, MutationBatch(normalized)
    return out


def invert_batch(mutated: nx.Graph, batch) -> nx.Graph:
    """Reconstruct the pre-batch graph from the post-batch one.

    Requires a *normalized* batch (priors recorded) for deletions and
    weight changes; raises :class:`~repro.errors.InvalidMutation` when
    a prior is missing (pass the base graph explicitly instead).
    """

    batch = as_batch(batch)
    inverse = []
    for i, m in enumerate(batch):
        if m.op == ADD_EDGE:
            inverse.append(Mutation(REMOVE_EDGE, m.u, m.v))
        elif m.op == ADD_NODE:
            inverse.append(Mutation(REMOVE_NODE, m.u))
        elif m.op in (REMOVE_EDGE, REMOVE_NODE, SET_EDGE_WEIGHT,
                      SET_NODE_WEIGHT):
            if m.prior is None and m.op != REMOVE_EDGE:
                raise InvalidMutation(
                    f"mutation #{i} ({m.op}) carries no prior value: "
                    "only a normalized batch (from apply_batch/"
                    "DynamicInstance) is invertible — pass base= to "
                    "MutationCompat instead"
                )
            if m.op == REMOVE_EDGE:
                inverse.append(Mutation(ADD_EDGE, m.u, m.v, weight=m.prior))
            elif m.op == REMOVE_NODE:
                inverse.append(Mutation(ADD_NODE, m.u, weight=m.prior))
            elif m.op == SET_EDGE_WEIGHT:
                inverse.append(Mutation(SET_EDGE_WEIGHT, m.u, m.v,
                                        weight=m.prior))
            else:
                inverse.append(Mutation(SET_NODE_WEIGHT, m.u,
                                        weight=m.prior))
    return apply_batch(mutated, MutationBatch(tuple(reversed(inverse))))


def graphs_equal(a: nx.Graph, b: nx.Graph) -> bool:
    """Structural + weight equality (node set, node weights, edge set,
    edge weights) — the identity the compat policy verifies."""

    if set(a.nodes) != set(b.nodes):
        return False
    if any(node_weight(a, v) != node_weight(b, v) for v in a.nodes):
        return False

    def keyed(g):
        return {frozenset((u, v)): edge_weight(g, u, v) for u, v in g.edges}

    return keyed(a) == keyed(b)


def influence_region(base: nx.Graph, target: nx.Graph, batch,
                     radius: int = 1) -> Set[Hashable]:
    """Nodes within ``radius`` hops (over the union of the before/after
    edge sets) of any node a mutation touches.

    This is the invalidation region: state of nodes inside it is
    spliced back to re-runnable form, everything outside keeps its
    captured state verbatim.
    """

    batch = as_batch(batch)
    adjacency: dict = {}
    for g in (base, target):
        for u, v in g.edges:
            adjacency.setdefault(u, set()).add(v)
            adjacency.setdefault(v, set()).add(u)
    region = set(batch.touched_nodes())
    frontier = set(region)
    for _ in range(max(0, radius)):
        frontier = {n for v in frontier
                    for n in adjacency.get(v, ())} - region
        if not frontier:
            break
        region |= frontier
    return region


__all__ = [
    "ADD_EDGE", "ADD_NODE", "Mutation", "MutationBatch", "OPS",
    "REMOVE_EDGE", "REMOVE_NODE", "SET_EDGE_WEIGHT", "SET_NODE_WEIGHT",
    "add_edge", "add_node", "apply_batch", "as_batch", "graphs_equal",
    "influence_region", "invert_batch", "remove_edge", "remove_node",
    "set_edge_weight", "set_node_weight",
]
