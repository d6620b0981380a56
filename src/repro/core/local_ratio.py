"""Algorithm 1 — the sequential local-ratio meta-algorithm for MaxIS.

This module is the correctness core of Section 2.1.  The local ratio
theorem for maximization problems (Theorem 2.1, [BYBFR04, Theorem 9])
states: if ``w = w1 + w2`` and a feasible ``x`` is r-approximate w.r.t.
both ``w1`` and ``w2``, it is r-approximate w.r.t. ``w``.

The meta-algorithm repeatedly picks an independent set ``U``, subtracts
``w(u)`` from every neighbor of each ``u ∈ U`` (creating the *residual*
weights ``w2`` and *reduced* weights ``w1 = w − w2``), recurses on the
positive-weight remainder, and finally adds back every ``u ∈ U`` with no
neighbor in the recursive solution (Lemma 2.2's exchange step).

The functions here are deliberately faithful to the paper's pseudocode —
including the recursion — because the distributed Algorithms 2 and 3 are
proven correct *by reduction to this meta-algorithm*.  Property tests
assert the Lemma 2.2 invariants on random executions.
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, Iterable, List, Optional, Set

import networkx as nx

from ..errors import InvalidInstance
from ..graphs import check_independent_set, node_weight
from ..utils import stable_rng
from .stepwise import Checkpoint


def split_weights(
    graph: nx.Graph,
    weights: Dict[Hashable, float],
    independent_set: Iterable[Hashable],
) -> tuple[Dict[Hashable, float], Dict[Hashable, float]]:
    """Split ``w`` into (reduced ``w1``, residual ``w2``) around ``U``.

    Each ``u ∈ U`` subtracts its weight from its *closed* neighborhood
    ``N[u]``: ``w2[v] = Σ_{u ∈ U ∩ N[v]} w[u]`` and ``w1 = w − w2``.  In
    particular ``w2[u] = w[u]`` and ``w1[u] = 0`` for every ``u ∈ U``
    (exactly the Lemma 2.2 proof's premise, and what Algorithm 2 does by
    zeroing a candidate's own weight in line 27).  ``w1`` may go negative
    on shared neighbors — Theorem 2.1 explicitly allows this.
    """

    chosen = set(independent_set)
    check_independent_set(graph, chosen)
    residual = {v: 0.0 for v in graph.nodes}
    for u in chosen:
        residual[u] += weights[u]
        for v in graph.neighbors(u):
            residual[v] += weights[u]
    reduced = {v: weights[v] - residual[v] for v in graph.nodes}
    return reduced, residual


def exchange_step(
    graph: nx.Graph,
    independent_set: Set[Hashable],
    recursive_solution: Set[Hashable],
) -> Set[Hashable]:
    """Lemma 2.2's completion: add every u ∈ U with no chosen neighbor.

    Equation (1) of the paper: x'[u] = 1 iff u ∈ U and no v ∈ N(u) has
    x[v] = 1; otherwise x'[u] = x[u].
    """

    solution = set(recursive_solution)
    for u in independent_set:
        if not any(v in solution for v in graph.neighbors(u)):
            solution.add(u)
    return solution


SelectorFn = Callable[[nx.Graph, Dict[Hashable, float]], Set[Hashable]]


def _default_selector(subgraph: nx.Graph,
                      weights: Dict[Hashable, float]) -> Set[Hashable]:
    """Pick a single maximum-weight node — the simplest independent set."""

    best = max(subgraph.nodes, key=lambda v: (weights[v], repr(v)))
    return {best}


def random_mis_selector(seed: int) -> SelectorFn:
    """A selector that greedily builds an MIS in random order.

    Used by property tests to exercise the meta-algorithm with the same
    kind of sets the distributed implementations produce.
    """

    rng = stable_rng(seed, "lr-selector")

    def selector(subgraph: nx.Graph,
                 weights: Dict[Hashable, float]) -> Set[Hashable]:
        order = sorted(subgraph.nodes, key=repr)
        rng.shuffle(order)
        chosen: Set[Hashable] = set()
        blocked: Set[Hashable] = set()
        for v in order:
            if v not in blocked:
                chosen.add(v)
                blocked.add(v)
                blocked.update(subgraph.neighbors(v))
        return chosen

    return selector


def sequential_local_ratio_iter(
    graph: nx.Graph,
    weights: Optional[Dict[Hashable, float]] = None,
    selector: Optional[SelectorFn] = None,
    trace: Optional[List[dict]] = None,
):
    """Anytime Algorithm 1: one checkpoint per exchange level.

    Generator form of :func:`sequential_local_ratio`: after the
    descent, every Lemma 2.2 exchange step yields a ``level-<i>``
    checkpoint (``i`` counts down to 0) with the partially assembled
    independent set and its weight — each intermediate state is itself
    independent (the exchange only adds nodes with no chosen
    neighbor), so every checkpoint is a valid partial solution.  The
    algorithm is sequential, so checkpoints report no rounds.  Returns
    the final set; draining the generator reproduces
    :func:`sequential_local_ratio` exactly.
    """

    if weights is None:
        weights = {v: float(node_weight(graph, v)) for v in graph.nodes}
    else:
        missing = set(graph.nodes) - set(weights)
        if missing:
            raise InvalidInstance(f"weights missing for {len(missing)} nodes")
        weights = {v: float(w) for v, w in weights.items()}
    if selector is None:
        selector = _default_selector

    # Descend: peel zero/negative nodes, pick U, reduce weights.
    levels: List[Set[Hashable]] = []
    active = {v for v in graph.nodes if weights[v] > 0}
    current = dict(weights)
    while active:
        subgraph = graph.subgraph(active)
        chosen = selector(subgraph, current)
        check_independent_set(subgraph, chosen)
        if not chosen:
            raise InvalidInstance("selector returned an empty set")
        reduced, residual = split_weights(subgraph, current, chosen)
        if trace is not None:
            trace.append({
                "level": len(levels),
                "set": set(chosen),
                "weights": dict(current),
                "reduced": reduced,
                "residual": residual,
            })
        levels.append(set(chosen))
        for v in subgraph.nodes:
            current[v] = reduced[v]
        active = {v for v in active if current[v] > 0}

    # Ascend: Lemma 2.2 exchange at every level, deepest first.
    solution: Set[Hashable] = set()
    for level in range(len(levels) - 1, -1, -1):
        solution = exchange_step(graph, levels[level], solution)
        yield Checkpoint(phase=f"level-{level}",
                         solution=frozenset(solution),
                         objective=sum(weights[v] for v in solution),
                         rounds=0)
    check_independent_set(graph, solution)
    return solution


def sequential_local_ratio(
    graph: nx.Graph,
    weights: Optional[Dict[Hashable, float]] = None,
    selector: Optional[SelectorFn] = None,
    trace: Optional[List[dict]] = None,
) -> Set[Hashable]:
    """Algorithm 1 (SeqLR): Δ-approximate maximum weight independent set.

    Parameters
    ----------
    graph:
        Input graph; node weights default to the ``weight`` attribute.
    weights:
        Optional explicit weight vector (overrides node attributes).
    selector:
        How the independent set ``U`` is picked each level (the paper
        leaves this open; correctness holds for any choice).
    trace:
        Optional list that receives one record per recursion level with
        the chosen set and the weight split — consumed by property tests
        asserting the Lemma 2.2 invariants.

    Returns the chosen independent set.  Implemented iteratively (an
    explicit stack) to avoid Python's recursion limit on deep instances,
    but structured exactly as the paper's recursion.
    """

    from ..utils import drain

    return drain(sequential_local_ratio_iter(graph, weights=weights,
                                             selector=selector, trace=trace))


def local_ratio_bound(graph: nx.Graph, delta: Optional[int] = None) -> int:
    """The approximation factor Δ guaranteed by the meta-algorithm.

    On a line graph the neighborhood independence number is 2, which is
    why the same algorithm is a 2-approximation for matching (§2.4).
    """

    if delta is not None:
        return max(1, delta)
    return max((d for _, d in graph.degree()), default=1) or 1
