"""Local aggregation algorithms (Definitions 2.4–2.7, Theorems 2.8–2.9).

The paper defines a family of algorithms whose only access to neighbor
data is through *aggregate functions* — order-invariant functions with a
joining function φ satisfying ``f(X) = φ(f(X1), f(X2))`` for any disjoint
partition ``X1 ∪ X2 = X``.  Such algorithms can be simulated on the line
graph in CONGEST with no congestion overhead (Theorem 2.8): both
endpoints of each edge mirror its state, each endpoint folds the
aggregate over the line-neighbors it hosts, and a single partial
aggregate crosses the physical edge per round.

This module provides the aggregate-function algebra, concrete instances
(AND, OR, MIN, MAX, SUM, COUNT — the ones Theorem 2.9 needs), a checker
used by property tests, and :func:`theorem_2_8_simulation_cost`, which
computes the per-edge message cost of simulating one line-graph round
under the naive strategy vs. the aggregation mechanism — the quantities
the congestion benchmark plots against Δ.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, Sequence, Tuple

import networkx as nx

from ..congest.linegraph import CongestionAudit, canonical_edge, line_graph
from ..errors import AlgorithmContractViolation


@dataclass(frozen=True)
class AggregateFunction:
    """An order-invariant function with a joining function (Def. 2.5).

    ``identity`` is the value of the empty input (the paper's padding
    with the empty character ε); ``join`` is φ.  ``f(X)`` is computed by
    folding φ over the inputs, which is exactly what makes the two-sided
    line-graph simulation of Theorem 2.8 possible.
    """

    name: str
    identity: object
    join: Callable[[object, object], object]

    def __call__(self, values: Iterable[object]) -> object:
        result = self.identity
        for value in values:
            result = self.join(result, value)
        return result


AND = AggregateFunction("and", True, lambda a, b: bool(a) and bool(b))
OR = AggregateFunction("or", False, lambda a, b: bool(a) or bool(b))
SUM = AggregateFunction("sum", 0, lambda a, b: a + b)
#: Count of true indicators.  Inputs must be booleans (0/1): a "count of
#: nonzero elements" over arbitrary ints is *not* an aggregate function
#: in the Definition 2.5 sense, because the joining function could not
#: tell partial counts from raw elements.
COUNT = AggregateFunction("count", 0, lambda a, b: a + b)
MIN = AggregateFunction(
    "min", float("inf"), lambda a, b: a if a <= b else b
)
MAX = AggregateFunction(
    "max", float("-inf"), lambda a, b: a if a >= b else b
)

#: The aggregate functions Algorithm 2 uses (Theorem 2.9's proof lists
#: Boolean AND/OR plus the weight-update SUM).
ALGORITHM_2_AGGREGATES: Tuple[AggregateFunction, ...] = (AND, OR, SUM, MAX)


def verify_aggregate(func: AggregateFunction,
                     sample: Sequence[object]) -> None:
    """Check Definition 2.5 on a concrete sample: order invariance and
    partition consistency.  Raises on violation (used by hypothesis
    tests with random samples)."""

    sample = list(sample)
    full = func(sample)
    if len(sample) <= 6:
        for perm in itertools.permutations(sample):
            if func(perm) != full:
                raise AlgorithmContractViolation(
                    f"{func.name} is not order invariant on {sample!r}"
                )
    for cut in range(len(sample) + 1):
        left, right = sample[:cut], sample[cut:]
        joined = func.join(func(left), func(right))
        if joined != full:
            raise AlgorithmContractViolation(
                f"{func.name} violates the partition law at cut {cut} "
                f"of {sample!r}"
            )


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


def fold_over_hosted_neighbors(
    graph: nx.Graph,
    edge: Tuple[Hashable, Hashable],
    endpoint: Hashable,
    values: dict,
    func: AggregateFunction,
) -> object:
    """One endpoint's partial aggregate over the line-neighbors it hosts.

    This is the computational half of the Theorem 2.8 mechanism: endpoint
    ``endpoint`` of edge ``edge`` folds ``func`` over the data of every
    incident edge other than ``edge`` itself.  The caller then joins the
    two endpoints' partials — tests assert this equals the direct
    aggregate over all line-neighbors.
    """

    u, v = edge
    if endpoint not in (u, v):
        raise AlgorithmContractViolation(
            f"{endpoint!r} is not an endpoint of {edge!r}"
        )
    hosted = []
    for w in graph.neighbors(endpoint):
        if {endpoint, w} == {u, v}:
            continue
        hosted.append(values[canonical_edge(endpoint, w)])
    return func(hosted)
