"""Footnote 5 — 2-approx MWM via weight groups directly on G.

Footnote 5 of the paper notes that running the layered MaxIS algorithm
on L(G) "is equivalent to iteratively running a maximal matching on
weight groups in G and performing local ratio steps on the edges of the
matching".  This module implements that direct formulation:

* edges are grouped into weight layers L_i = {e : 2^{i-1} < w(e) ≤ 2^i};
* each iteration finds a maximal matching among *locally top* edges
  (edges with no higher-layer active edge sharing an endpoint) — the
  matched edges are an independent set in L(G);
* matched edges apply the closed-neighborhood local-ratio step: their
  weight is zeroed and subtracted from every adjacent edge, and edges
  driven to zero or below retire;
* the addition stage pops candidates in reverse selection order, adding
  an edge when none of the adjacent edges it waited on joined.

The guarantee is the same factor 2 as Theorem 2.10 (the neighborhood
independence number of a line graph is 2).  Rounds are charged to a
ledger: one maximal-matching sub-protocol per iteration (the black box,
O(log n) with Israeli–Itai) plus O(1) bookkeeping, mirroring how the
paper charges MIS(G) per layer.

This exists both as a usable algorithm (it avoids materializing L(G))
and as the ablation target for ``benchmarks/bench_ablation.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Set

import networkx as nx

from ..congest import RoundLedger
from ..errors import InvalidInstance
from ..graphs import check_matching, edge_weight
from ..utils import geometric_layers, stable_rng

Edge = frozenset


@dataclass
class WeightGroupResult:
    """Outcome of the weight-group matching."""

    matching: Set[Edge]
    weight: int
    rounds: int
    iterations: int
    ledger: RoundLedger = field(default_factory=RoundLedger)


def _adjacent_edges(graph: nx.Graph, edge: Edge):
    u, v = tuple(edge)
    for x in (u, v):
        for w in graph.neighbors(x):
            other = frozenset((x, w))
            if other != edge:
                yield other


def _maximal_matching_among(edges: Set[Edge], rng) -> Set[Edge]:
    """Greedy maximal matching in random order (the black box; charged
    as one distributed maximal-matching execution by the caller)."""

    order = sorted(edges, key=repr)
    rng.shuffle(order)
    used: Set[Hashable] = set()
    chosen: Set[Edge] = set()
    for edge in order:
        u, v = tuple(edge)
        if u not in used and v not in used:
            chosen.add(edge)
            used.update((u, v))
    return chosen


def weight_group_matching(
    graph: nx.Graph,
    seed: int = 0,
    max_iterations: int = 10_000,
    mm_rounds_charge: Optional[int] = None,
) -> WeightGroupResult:
    """Footnote 5's 2-approximate maximum weight matching on G.

    ``mm_rounds_charge`` is the per-iteration round cost of the maximal
    matching black box (defaults to the Israeli–Itai O(log n) figure,
    3·⌈log2 m⌉ rounds for m edges).
    """

    rng = stable_rng(seed, "weight-groups")
    weights: Dict[Edge, int] = {}
    for u, v in graph.edges:
        w = edge_weight(graph, u, v)
        if w <= 0:
            raise InvalidInstance("edge weights must be positive")
        weights[frozenset((u, v))] = w
    ledger = RoundLedger()
    if mm_rounds_charge is None:
        import math

        m = max(2, graph.number_of_edges())
        mm_rounds_charge = 3 * math.ceil(math.log2(m))

    active: Set[Edge] = set(weights)
    selection_order: List[Set[Edge]] = []
    iterations = 0
    while active and iterations < max_iterations:
        iterations += 1
        layer = {e: geometric_layers(weights[e]) for e in active}
        top_local = {
            e for e in active
            if all(layer.get(e2, -1) <= layer[e]
                   for e2 in _adjacent_edges(graph, e) if e2 in active)
        }
        ledger.charge(1, "layer-exchange")
        selected = _maximal_matching_among(top_local, rng)
        ledger.charge(mm_rounds_charge, "maximal-matching")
        if not selected:
            continue
        selection_order.append(selected)
        # Closed-neighborhood local-ratio step.
        for e in selected:
            w = weights[e]
            weights[e] = 0
            for e2 in _adjacent_edges(graph, e):
                if e2 in active and e2 not in selected:
                    weights[e2] -= w
        ledger.charge(1, "reduce")
        active = {e for e in active if weights[e] > 0}
    else:
        if active:
            raise InvalidInstance(
                "weight-group matching did not converge; increase "
                "max_iterations"
            )

    # Addition stage: pop candidate groups in reverse selection order.
    chosen: Set[Edge] = set()
    blocked: Set[Hashable] = set()
    for selected in reversed(selection_order):
        for e in sorted(selected, key=repr):
            u, v = tuple(e)
            if u not in blocked and v not in blocked:
                chosen.add(e)
                blocked.update((u, v))
        ledger.charge(1, "addition")

    check_matching(graph, chosen)
    total = sum(edge_weight(graph, *tuple(e)) for e in chosen)
    return WeightGroupResult(
        matching=chosen,
        weight=total,
        rounds=ledger.total,
        iterations=iterations,
        ledger=ledger,
    )
