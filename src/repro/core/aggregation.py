"""Theorem 2.8's per-edge cost of simulating a line-graph round.

The paper's local aggregation algorithms (Definitions 2.4–2.7) read
neighbor data only through aggregate functions — order-invariant
functions with a joining function φ, ``f(X) = φ(f(X1), f(X2))`` for any
disjoint partition.  Such an algorithm runs on the line graph in
CONGEST with no congestion overhead (Theorem 2.8): both endpoints of
each edge mirror its state, each folds the aggregate over the
line-neighbors it hosts, and one partial aggregate crosses the physical
edge per round.  :func:`theorem_2_8_simulation_cost` prices one
line-graph round under the naive strategy and under that mechanism —
the quantities the congestion benchmark plots against Δ.  Theorem 2.9
(Algorithm 2 is such an algorithm) is checked against the real
``MaxISLayersProgram`` in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import networkx as nx

from ..congest.linegraph import CongestionAudit, line_graph


@dataclass
class SimulationCost:
    """Per-round physical-edge message cost of one line-graph round."""

    naive_max_load: int
    aggregated_max_load: int
    naive_total: int
    aggregated_total: int


def theorem_2_8_simulation_cost(graph: nx.Graph) -> SimulationCost:
    """Cost of simulating one broadcast round of a line-graph algorithm.

    Every line-node sends one message to each line-neighbor, and
    :class:`~repro.congest.linegraph.CongestionAudit` prices the round
    under both strategies.  Naive: a message crosses a physical edge
    whenever a primary endpoint differs from the shared endpoint, so
    the busiest physical edge carries Θ(Δ) messages.  Aggregation
    (Theorem 2.8): each physical edge carries one partial aggregate
    (secondary → primary) plus one state update (primary → secondary)
    regardless of Δ.
    """

    audit = CongestionAudit()
    lg = line_graph(graph)
    for e in lg:
        for e2 in lg[e]:
            audit.record_line_message(0, e, e2)
    audit.record_aggregated_round(0, graph)
    naive = audit.naive_per_round.get(0, {})
    aggregated = audit.aggregated_per_round[0]
    return SimulationCost(
        naive_max_load=audit.max_naive_load(),
        aggregated_max_load=audit.max_aggregated_load(),
        naive_total=sum(naive.values()),
        aggregated_total=sum(aggregated.values()),
    )
