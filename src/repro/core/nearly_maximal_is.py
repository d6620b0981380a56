"""Section 3.1 — the improved nearly-maximal independent set (Theorem 3.1).

Ghaffari's algorithm updates marking probabilities by a factor 2; the
paper's improvement raises the update factor to ``K = Θ(log^0.1 Δ)``,
giving round complexity ``O(log Δ / log K + K² log 1/δ)`` for per-node
failure probability δ — which is ``O(log Δ / log log Δ)`` and matches the
[KMW06] lower bound.  The probability dynamics themselves are shared with
:mod:`repro.mis.ghaffari`; this module contributes the parameterization,
the Theorem 3.1 round budget, and the residual-decay measurement used to
reproduce the theorem's guarantee empirically.

Note on scale: Θ(log^0.1 Δ) only exceeds 2 for astronomically large Δ,
so on simulable graphs we expose K directly (default the paper's formula
floored at 2).  The *shape* claim — larger K flattens the log Δ / log K
term while inflating the additive K² log(1/δ) term — is exactly what the
decay benchmark sweeps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Hashable, Optional, Set

import networkx as nx

from ..congest import SynchronousNetwork
from ..graphs import max_degree
from ..mis.ghaffari import GoldenRoundStats, nearly_maximal_is


def paper_k(delta: int) -> float:
    """``K = Θ(log^0.1 Δ)`` from Theorem 3.1, floored at 2.

    For every graph a laptop can hold, ``log^0.1 Δ < 2``; the floor keeps
    the dynamics meaningful while preserving the formula's asymptotics.
    """

    if delta < 2:
        return 2.0
    return max(2.0, math.log2(delta) ** 0.1)


def theorem_3_1_budget(delta: int, k: float, failure_delta: float,
                       beta: float = 4.0) -> int:
    """The iteration budget ``β(log Δ / log K + K² log 1/δ)``."""

    if not 0 < failure_delta < 1:
        raise ValueError("failure probability must be in (0, 1)")
    delta = max(2, delta)
    log_term = math.log2(delta) / math.log2(k)
    additive = (k ** 2) * math.log(1.0 / failure_delta)
    return max(1, math.ceil(beta * (log_term + additive)))


@dataclass
class NearlyMaximalISResult:
    """Outcome of the improved nearly-maximal IS."""

    independent_set: Set[Hashable]
    residual: Set[Hashable]
    rounds: int
    iterations: int
    k: float
    stats: Optional[GoldenRoundStats] = None


def improved_nearly_maximal_is(
    graph: nx.Graph,
    failure_delta: float = 0.05,
    k: Optional[float] = None,
    beta: float = 4.0,
    seed: int = 0,
    network: Optional[SynchronousNetwork] = None,
    collect_stats: bool = False,
    label: str = "improved-nmis",
) -> NearlyMaximalISResult:
    """Theorem 3.1's nearly-maximal IS with the paper's parameterization.

    Every node ends in the set, dominated, or *residual*; Theorem 3.1
    bounds P[residual] by ``failure_delta`` per node (and the guarantee
    is local — it survives adversarial randomness outside the node's
    2-neighborhood, which is what lets Theorem 3.2 sum residuals against
    the optimal matching).
    """

    delta = max_degree(graph)
    if k is None:
        k = paper_k(delta)
    iterations = theorem_3_1_budget(delta, k, failure_delta, beta)
    stats = GoldenRoundStats() if collect_stats else None
    independent, residual, rounds = nearly_maximal_is(
        graph,
        iterations=iterations,
        k=k,
        seed=seed,
        network=network,
        stats=stats,
        label=label,
    )
    return NearlyMaximalISResult(
        independent_set=independent,
        residual=residual,
        rounds=rounds,
        iterations=iterations,
        k=k,
        stats=stats,
    )


def residual_decay_series(
    graph: nx.Graph,
    k: float,
    max_iterations: int,
    seeds,
) -> list:
    """Fraction of nodes neither in nor dominated, per iteration budget.

    Runs the algorithm once per (seed, budget) pair and reports the mean
    undecided fraction — the empirical version of Theorem 3.1's decay,
    plotted by ``benchmarks/bench_nmis_decay.py``.
    """

    n = max(1, graph.number_of_nodes())
    series = []
    for iterations in range(1, max_iterations + 1):
        fractions = []
        for seed in seeds:
            _, residual, _ = nearly_maximal_is(
                graph, iterations=iterations, k=k, seed=seed,
            )
            fractions.append(len(residual) / n)
        series.append(sum(fractions) / len(fractions))
    return series
