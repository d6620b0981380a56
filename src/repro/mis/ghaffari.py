"""Ghaffari's nearly-maximal independent set algorithm [Gha16].

Each node maintains a marking probability ``p_t(v)``; its *effective
degree* is ``d_t(v) = Σ_{u ∈ N(v)} p_t(u)``.  Per iteration:

* ``p_{t+1}(v) = p_t(v)/K``                 if ``d_t(v) >= 2``,
* ``p_{t+1}(v) = min(K * p_t(v), 1/K)``     otherwise,

and a node marked (with probability ``p_t(v)``) with no marked neighbor
joins the independent set; it and its neighbors retire.

``K = 2`` recovers the original algorithm of [Gha16] whose nearly-maximal
phase runs in O(log Δ) iterations.  The paper's Section 3.1 improvement
raises ``K`` to Θ(log^0.1 Δ), giving O(log Δ/log K + K² log 1/δ)
iterations (Theorem 3.1) — that parameterization lives in
:mod:`repro.core.nearly_maximal_is`, which reuses this program.

Node outputs: ``"in"``, ``"dominated"``, or ``"residual"`` (still active
when the iteration budget ran out — the nodes Theorem 3.1 bounds).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, Optional, Set, Tuple

import networkx as nx

from ..congest import NodeContext, NodeProgram, SynchronousNetwork
from ..graphs import check_independent_set

IN_IS = "in"
DOMINATED = "dominated"
RESIDUAL = "residual"


@dataclass
class GoldenRoundStats:
    """Instrumentation for Lemma B.1/B.2: golden-round counts per node.

    A *type-1* golden round has ``d_t(v) < 2`` and ``p_t(v) = 1/K``; a
    *type-2* golden round has ``d_t(v) >= 1`` with at least a
    ``1/(2K²)`` fraction of ``d_t(v)`` contributed by low-degree
    (``d_t(u) < 2``) neighbors.  Lemma B.1 proves one of the counters
    reaches Θ(T) before the budget ends; the decay benchmark plots these.
    """

    type1: Dict[Hashable, int] = field(default_factory=dict)
    type2: Dict[Hashable, int] = field(default_factory=dict)

    def bump(self, table: Dict[Hashable, int], node: Hashable) -> None:
        table[node] = table.get(node, 0) + 1


class GhaffariProgram(NodeProgram):
    """One node of the dynamic-probability nearly-maximal IS.

    Two communication rounds per iteration:

    * even round — retire if a neighbor announced joining; otherwise
      broadcast ``(p, marked, was_low_degree)``;
    * odd round — resolve markings (a marked node with no marked active
      neighbor joins and announces) and update ``p`` from the received
      effective degree.

    After ``iterations`` full iterations a still-active node halts with
    ``"residual"``.
    """

    def __init__(self, k: float, iterations: int,
                 stats: Optional[GoldenRoundStats] = None):
        if k < 2:
            raise ValueError(f"K must be at least 2, got {k}")
        self.k = float(k)
        self.iterations = iterations
        self.stats = stats

    def on_start(self, ctx: NodeContext) -> None:
        # p_t(v) is always K^{-exponent} for an integer exponent >= 1, so
        # nodes exchange the exponent — an O(log round)-bit integer —
        # instead of a 64-bit float (CONGEST sizing).
        self.exponent = 1
        self.marked = False
        self.low_degree = True  # d_0(v) = deg/K; refreshed each iteration.

    @property
    def p(self) -> float:
        return float(self.k) ** (-self.exponent)

    def on_round(self, ctx: NodeContext) -> None:
        if ctx.round % 2 == 0:
            for payload in ctx.inbox.values():
                if payload and payload[0] == "join":
                    ctx.halt(DOMINATED)
                    return
            if ctx.round // 2 >= self.iterations:
                ctx.halt(RESIDUAL)
                return
            self.marked = ctx.rng.random() < self.p
            ctx.broadcast("p", self.exponent, self.marked, self.low_degree)
        else:
            effective_degree = 0.0
            low_degree_mass = 0.0
            neighbor_marked = False
            for payload in ctx.inbox.values():
                if not payload or payload[0] != "p":
                    continue
                _, exponent_u, marked_u, low_u = payload
                p_u = float(self.k) ** (-exponent_u)
                effective_degree += p_u
                if low_u:
                    low_degree_mass += p_u
                neighbor_marked = neighbor_marked or marked_u
            self._record_golden(ctx, effective_degree, low_degree_mass)
            if self.marked and not neighbor_marked:
                ctx.broadcast("join")
                ctx.halt(IN_IS)
                return
            self.low_degree = effective_degree < 2
            if effective_degree >= 2:
                self.exponent += 1
            else:
                self.exponent = max(1, self.exponent - 1)

    def _record_golden(self, ctx: NodeContext, effective_degree: float,
                       low_degree_mass: float) -> None:
        if self.stats is None:
            return
        if effective_degree < 2 and self.p >= 1.0 / self.k - 1e-12:
            self.stats.bump(self.stats.type1, ctx.node)
        if (effective_degree >= 1
                and low_degree_mass >= effective_degree / (2 * self.k ** 2)):
            self.stats.bump(self.stats.type2, ctx.node)


def nearly_maximal_is(
    graph: nx.Graph,
    iterations: int,
    k: float = 2.0,
    seed: int = 0,
    network: Optional[SynchronousNetwork] = None,
    stats: Optional[GoldenRoundStats] = None,
    label: str = "ghaffari-nmis",
) -> Tuple[Set[Hashable], Set[Hashable], int]:
    """Run the nearly-maximal IS; return ``(in_set, residual, rounds)``.

    ``residual`` holds the unlucky nodes that are neither in the set nor
    dominated — the quantity Theorem 3.1 bounds by δ per node.
    """

    if network is None:
        network = SynchronousNetwork(graph, seed=seed)
    result = network.run(
        lambda node: GhaffariProgram(k=k, iterations=iterations, stats=stats),
        max_rounds=2 * iterations + 4,
        label=label,
    )
    independent = result.output_set(IN_IS)
    residual = result.output_set(RESIDUAL)
    check_independent_set(graph, independent)
    return independent, residual, result.rounds
