"""Theorem 3.2 and Appendix B.1 — time-optimal (2+ε) matching.

Unweighted: run the improved nearly-maximal independent set (Theorem 3.1)
on the line graph.  The result is a *nearly-maximal matching*: each edge
of the optimal matching has probability at most δ of ending "unlucky"
(neither matched nor adjacent to the matching), so in expectation the
found matching is a (2+ε)-approximation for δ ≪ ε (Theorem 3.2).  Because
the algorithm is a local aggregation algorithm, the line-graph execution
costs no congestion penalty in CONGEST (Theorems 2.8/2.9).

Weighted (Appendix B.1, following Lotker et al.):

1. *Bucketing*: weights are classified into big-buckets (powers of a
   constant β) subdivided into small-buckets (powers of 1+ε).  Each
   big-bucket — all in parallel, so the round cost is the maximum over
   big-buckets — processes its small-buckets from heaviest to lightest,
   matching each with the unweighted algorithm and deleting incident
   edges.  Keeping only locally-heaviest chosen edges across big-buckets
   yields an O(1)-approximation [LPSR09].
2. *Augmentation*: O(1/ε) iterations of the [LPSP15 §4] scheme — compute
   the auxiliary weight (gain) of every non-matching edge over length-≤3
   augmenting paths, find an O(1)-approximate matching under auxiliary
   weights with step 1, and augment.  The result is a (2+ε)-approximate
   maximum weight matching.

Round accounting uses a :class:`~repro.congest.RoundLedger`: message-level
sub-protocols contribute measured rounds; O(1)-round bookkeeping phases
are charged as the paper's analysis does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Hashable, Optional, Set, Tuple

import networkx as nx

from ..congest import RoundLedger, line_graph
from ..errors import InvalidInstance
from ..graphs import check_matching, edge_weight
from .nearly_maximal_is import (
    NearlyMaximalISResult,
    improved_nearly_maximal_is,
)


@dataclass
class FastMatchingResult:
    """A matching plus round accounting and the NMIS residual."""

    matching: Set[frozenset]
    weight: int
    rounds: int
    ledger: RoundLedger = field(default_factory=RoundLedger)
    unlucky_edges: Set[frozenset] = field(default_factory=set)


def nearly_maximal_matching(
    graph: nx.Graph,
    failure_delta: float = 0.05,
    k: Optional[float] = None,
    beta: float = 4.0,
    seed: int = 0,
    label: str = "nearly-maximal-matching",
) -> Tuple[Set[frozenset], Set[frozenset], int]:
    """Nearly-maximal matching = improved NMIS on the line graph.

    Returns ``(matching, unlucky_edges, rounds)`` where ``unlucky_edges``
    are line-graph residuals: edges neither matched nor adjacent to the
    matching when the Theorem 3.1 budget ran out.
    """

    if graph.number_of_edges() == 0:
        return set(), set(), 0
    lg = line_graph(graph)
    outcome: NearlyMaximalISResult = improved_nearly_maximal_is(
        lg, failure_delta=failure_delta, k=k, beta=beta, seed=seed,
        label=label,
    )
    matching = {frozenset(e) for e in outcome.independent_set}
    unlucky = {frozenset(e) for e in outcome.residual}
    check_matching(graph, matching)
    return matching, unlucky, outcome.rounds


def fast_matching_2eps(
    graph: nx.Graph,
    eps: float = 0.5,
    seed: int = 0,
    k: Optional[float] = None,
    beta: float = 4.0,
) -> FastMatchingResult:
    """Theorem 3.2: (2+ε)-approximate maximum *cardinality* matching.

    δ is set to ``min(0.2, ε/8)``; the paper uses ``δ = 2^{-log^0.7 Δ}``,
    which is smaller than any such constant for large Δ — the benchmark
    sweeps both.
    """

    if eps <= 0:
        raise InvalidInstance(f"eps must be positive, got {eps}")
    failure_delta = min(0.2, eps / 8.0)
    matching, unlucky, rounds = nearly_maximal_matching(
        graph, failure_delta=failure_delta, k=k, beta=beta, seed=seed,
    )
    ledger = RoundLedger()
    ledger.charge(rounds, "nmis-on-line-graph")
    return FastMatchingResult(
        matching=matching,
        weight=len(matching),
        rounds=ledger.total,
        ledger=ledger,
        unlucky_edges=unlucky,
    )


# ----------------------------------------------------------------------
# Appendix B.1 — weighted case via Lotker et al. bucketing + augmentation
# ----------------------------------------------------------------------
def _bucket_of(weight: int, beta_bucket: int, eps: float) -> Tuple[int, int]:
    """(big-bucket, small-bucket) indices of a positive weight."""

    big = int(math.floor(math.log(weight, beta_bucket)))
    base = beta_bucket ** big
    small = int(math.floor(math.log(max(1.0, weight / base), 1.0 + eps)))
    return big, small


def bucketed_constant_approx_mwm(
    graph: nx.Graph,
    eps: float = 0.5,
    beta_bucket: int = 16,
    seed: int = 0,
    ledger: Optional[RoundLedger] = None,
) -> Set[frozenset]:
    """O(1)-approximate MWM by big/small-bucket decomposition [LPSR09].

    Big-buckets run in parallel: the ledger charge is the *maximum* round
    cost over big-buckets (each bucket's small-buckets run sequentially),
    plus one round for the cross-bucket keep-heaviest filter.
    """

    if graph.number_of_edges() == 0:
        return set()
    if ledger is None:
        ledger = RoundLedger()
    buckets: Dict[int, Dict[int, list]] = {}
    for u, v in graph.edges:
        w = edge_weight(graph, u, v)
        if w <= 0:
            raise InvalidInstance("edge weights must be positive")
        big, small = _bucket_of(w, beta_bucket, eps)
        buckets.setdefault(big, {}).setdefault(small, []).append((u, v))

    chosen_per_bucket: Dict[int, Set[frozenset]] = {}
    max_bucket_rounds = 0
    for big, smalls in buckets.items():
        bucket_rounds = 0
        removed: Set[Hashable] = set()
        chosen: Set[frozenset] = set()
        for small in sorted(smalls, reverse=True):
            edges = [
                (u, v) for u, v in smalls[small]
                if u not in removed and v not in removed
            ]
            if not edges:
                continue
            sub = nx.Graph()
            sub.add_edges_from(edges)
            matching, _, rounds = nearly_maximal_matching(
                sub, failure_delta=min(0.2, eps / 8.0),
                seed=seed + big * 1000 + small,
                label=f"bucket-{big}-{small}",
            )
            bucket_rounds += rounds + 1  # +1 to broadcast removals
            chosen |= matching
            for e in matching:
                removed.update(e)
        chosen_per_bucket[big] = chosen
        max_bucket_rounds = max(max_bucket_rounds, bucket_rounds)
    ledger.charge(max_bucket_rounds, "bucketed-parallel-matching")

    # Cross-bucket filter: keep a chosen edge only if it is the heaviest
    # chosen edge incident to both endpoints (ties by canonical repr).
    all_chosen = [e for s in chosen_per_bucket.values() for e in s]
    def rank(e: frozenset) -> tuple:
        u, v = tuple(e)
        return (edge_weight(graph, u, v), repr(sorted(map(repr, e))))

    keep: Set[frozenset] = set()
    for e in all_chosen:
        u, v = tuple(e)
        heaviest = True
        for x in (u, v):
            for e2 in all_chosen:
                if e2 != e and x in e2 and rank(e2) > rank(e):
                    heaviest = False
                    break
            if not heaviest:
                break
        if heaviest:
            keep.add(e)
    ledger.charge(1, "cross-bucket-filter")
    check_matching(graph, keep)
    return keep


def fast_matching_weighted_2eps(
    graph: nx.Graph,
    eps: float = 0.5,
    beta_bucket: int = 16,
    seed: int = 0,
) -> FastMatchingResult:
    """Appendix B.1: (2+ε)-approximate maximum *weight* matching.

    O(1/ε) augmentation iterations over length-≤3 weighted augmenting
    paths, each using the bucketed O(1)-approximation as the black box A
    of [LPSP15 §4].
    """

    if eps <= 0:
        raise InvalidInstance(f"eps must be positive, got {eps}")
    ledger = RoundLedger()
    matching: Set[frozenset] = bucketed_constant_approx_mwm(
        graph, eps=eps, beta_bucket=beta_bucket, seed=seed, ledger=ledger,
    )

    iterations = max(1, math.ceil(1.0 / eps)) + 2
    for iteration in range(iterations):
        mate: Dict[Hashable, frozenset] = {}
        for e in matching:
            for x in e:
                mate[x] = e

        def gain(u: Hashable, v: Hashable) -> int:
            lost = 0
            for x in (u, v):
                if x in mate:
                    a, b = tuple(mate[x])
                    lost += edge_weight(graph, a, b)
            return edge_weight(graph, u, v) - lost

        aux = nx.Graph()
        for u, v in graph.edges:
            if frozenset((u, v)) in matching:
                continue
            g = gain(u, v)
            if g > 0:
                aux.add_edge(u, v, weight=g)
        ledger.charge(2, "auxiliary-weights")
        if aux.number_of_edges() == 0:
            break
        augmenting = bucketed_constant_approx_mwm(
            aux, eps=eps, beta_bucket=beta_bucket,
            seed=seed + 7919 * (iteration + 1), ledger=ledger,
        )
        if not augmenting:
            break
        for e in augmenting:
            for x in e:
                old = mate.get(x)
                if old is not None:
                    matching.discard(old)
                    for y in old:
                        if mate.get(y) is old:
                            del mate[y]
            matching.add(e)
            for x in e:
                mate[x] = e
        ledger.charge(1, "augment")
        check_matching(graph, matching)

    weight = sum(edge_weight(graph, *tuple(e)) for e in matching)
    return FastMatchingResult(
        matching=matching,
        weight=weight,
        rounds=ledger.total,
        ledger=ledger,
    )
