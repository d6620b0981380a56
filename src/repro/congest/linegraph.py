"""Line-graph execution and the Section 2.4 congestion audit.

A maximum matching in ``G`` is a maximum independent set in the line graph
``L(G)``.  The paper executes its MaxIS algorithms on ``L(G)`` by assigning
each edge of ``G`` to one endpoint (its *primary* node) that simulates it
[Kuh05].  In the LOCAL model this is free; in CONGEST a naive simulation
pays a Δ-factor congestion penalty because a primary node may simulate up
to Δ line-nodes, each talking to up to 2Δ−2 line-neighbors.

Theorem 2.8 shows that *local aggregation algorithms* (Definition 2.7)
avoid the penalty: both endpoints of an edge mirror its simulated state, so
each endpoint can locally fold the aggregate over the line-neighbors it
hosts and ship a single partial aggregate across the physical edge.

This module provides:

* :func:`line_graph` — canonical line-graph construction,
* :func:`primary_endpoint` — the simulation assignment,
* :class:`CongestionAudit` — measure, per physical edge of ``G`` and per
  round, the message load of a node program run on ``L(G)`` under (a)
  the naive simulation and (b) the aggregation mechanism.  An audited
  :func:`repro.core.matching_lines_phases` run feeds it from its engine,
  one round's in-flight mail at a time, which is how the
  ``congestion`` experiment reproduces the Theorem 2.8 separation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, Tuple

import networkx as nx

LineNode = Tuple[Hashable, Hashable]


def canonical_edge(u: Hashable, v: Hashable) -> LineNode:
    """Return the canonical (sorted) representation of edge ``{u, v}``."""

    return (u, v) if repr(u) <= repr(v) else (v, u)


def line_graph(graph: nx.Graph) -> nx.Graph:
    """Build ``L(G)``: one node per edge, adjacency = shared endpoint.

    Edge weights of ``G`` (attribute ``weight``) become node weights of
    ``L(G)`` (attribute ``weight``), matching the reduction in Section 2.4.
    """

    lg = nx.Graph()
    for u, v, data in graph.edges(data=True):
        lg.add_node(canonical_edge(u, v), weight=data.get("weight", 1))
    for node in graph.nodes:
        incident = [canonical_edge(node, w) for w in graph.neighbors(node)]
        for i, e1 in enumerate(incident):
            for e2 in incident[i + 1:]:
                lg.add_edge(e1, e2)
    return lg


def primary_endpoint(edge: LineNode) -> Hashable:
    """The endpoint that simulates this line-node (we pick the larger)."""

    return edge[1]


def secondary_endpoint(edge: LineNode) -> Hashable:
    return edge[0]


def shared_endpoint(e1: LineNode, e2: LineNode) -> Hashable:
    """Return the endpoint shared by two adjacent line-nodes."""

    common = set(e1) & set(e2)
    if not common:
        raise ValueError(f"line nodes {e1} and {e2} are not adjacent")
    return next(iter(common))


@dataclass
class CongestionAudit:
    """Per-round physical-edge load under the two simulation strategies.

    ``naive_load[(u, v)]`` counts, for the busiest round, the messages that
    must cross physical edge ``{u, v}`` if every line-graph message is
    routed from the primary of its source to the primary of its target.

    ``aggregated_load`` counts the messages of the Theorem 2.8 mechanism:
    per round, each physical edge carries at most one partial-aggregate
    message (secondary → primary) and one state-update message
    (primary → secondary), independent of Δ.
    """

    naive_per_round: Dict[int, Dict[Tuple[Hashable, Hashable], int]] = field(
        default_factory=dict
    )
    aggregated_per_round: Dict[int, Dict[Tuple[Hashable, Hashable], int]] = (
        field(default_factory=dict)
    )

    def _bump(self, table: Dict, round_index: int,
              edge: Tuple[Hashable, Hashable], amount: int = 1) -> None:
        per_edge = table.setdefault(round_index, {})
        per_edge[edge] = per_edge.get(edge, 0) + amount

    def record_line_message(self, round_index: int, src: LineNode,
                            dst: LineNode) -> None:
        """Account one L(G)-message under the naive routing."""

        shared = shared_endpoint(src, dst)
        for simulator, endpoint in (
            (primary_endpoint(src), shared),
            (primary_endpoint(dst), shared),
        ):
            if simulator != endpoint:
                self._bump(self.naive_per_round, round_index,
                           canonical_edge(simulator, endpoint))

    def record_aggregated_round(self, round_index: int,
                                graph: nx.Graph) -> None:
        """Account the fixed two-message-per-edge cost of Theorem 2.8."""

        per_edge = self.aggregated_per_round.setdefault(round_index, {})
        for u, v in graph.edges:
            per_edge[canonical_edge(u, v)] = 2

    # ------------------------------------------------------------------
    def max_naive_load(self) -> int:
        """Maximum messages over any physical edge in any round (naive)."""

        return max(
            (load for per_edge in self.naive_per_round.values()
             for load in per_edge.values()),
            default=0,
        )

    def max_aggregated_load(self) -> int:
        return max(
            (load for per_edge in self.aggregated_per_round.values()
             for load in per_edge.values()),
            default=0,
        )

