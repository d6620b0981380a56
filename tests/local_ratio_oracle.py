"""Algorithm 1 — the sequential local-ratio meta-algorithm for MaxIS.

The test oracle for Theorem 2.1 ([BYBFR04, Theorem 9]): if
``w = w1 + w2`` and a feasible ``x`` is r-approximate w.r.t. both
``w1`` and ``w2``, it is r-approximate w.r.t. ``w``.  The distributed
Algorithms 2 and 3 are proven correct by reduction to this
meta-algorithm, so tests compare them against it.

The meta-algorithm repeatedly picks an independent set ``U``, subtracts
``w(u)`` from every neighbor of each ``u ∈ U`` (creating the *residual*
weights ``w2`` and *reduced* weights ``w1 = w − w2``), recurses on the
positive-weight remainder, and finally adds back every ``u ∈ U`` with no
neighbor in the recursive solution (Lemma 2.2's exchange step).
"""

from __future__ import annotations

from repro.errors import InvalidInstance
from repro.graphs import check_independent_set, node_weight
from repro.utils import stable_rng


def split_weights(graph, weights, independent_set):
    """Split ``w`` into (reduced ``w1``, residual ``w2``) around ``U``.

    Each ``u ∈ U`` subtracts its weight from its *closed* neighborhood
    ``N[u]``: ``w2[v] = Σ_{u ∈ U ∩ N[v]} w[u]`` and ``w1 = w − w2``.  In
    particular ``w2[u] = w[u]`` and ``w1[u] = 0`` for every ``u ∈ U``
    (the Lemma 2.2 proof's premise).  ``w1`` may go negative on shared
    neighbors — Theorem 2.1 explicitly allows this.
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


def exchange_step(graph, independent_set, recursive_solution):
    """Lemma 2.2's completion: add every u ∈ U with no chosen neighbor."""

    solution = set(recursive_solution)
    for u in independent_set:
        if not any(v in solution for v in graph.neighbors(u)):
            solution.add(u)
    return solution


def random_mis_selector(seed):
    """A selector that greedily builds an MIS in a seeded random order,
    the kind of set the distributed implementations pick."""

    rng = stable_rng(seed, "lr-selector")

    def selector(subgraph, weights):
        order = sorted(subgraph.nodes, key=repr)
        rng.shuffle(order)
        chosen, blocked = set(), set()
        for v in order:
            if v not in blocked:
                chosen.add(v)
                blocked.add(v)
                blocked.update(subgraph.neighbors(v))
        return chosen

    return selector


def sequential_local_ratio(graph, weights=None, selector=None, trace=None):
    """Algorithm 1 (SeqLR): a Δ-approximate maximum-weight independent set.

    ``weights`` overrides the ``weight`` node attributes; ``selector``
    picks ``U`` at each level (default: one maximum-weight node; the
    guarantee holds for any choice); ``trace`` receives one record per
    level with the chosen set and the weight split.  The recursion runs
    as a descent loop followed by the exchange steps, deepest first.
    """

    if weights is None:
        weights = {v: float(node_weight(graph, v)) for v in graph.nodes}
    else:
        missing = set(graph.nodes) - set(weights)
        if missing:
            raise InvalidInstance(f"weights missing for {len(missing)} nodes")
        weights = {v: float(w) for v, w in weights.items()}
    if selector is None:
        def selector(subgraph, current):
            return {max(subgraph.nodes, key=lambda v: (current[v], repr(v)))}

    levels = []
    active = {v for v in graph.nodes if weights[v] > 0}
    current = dict(weights)
    while active:
        subgraph = graph.subgraph(active)
        chosen = selector(subgraph, current)
        if not chosen:
            raise InvalidInstance("selector returned an empty set")
        reduced, residual = split_weights(subgraph, current, chosen)
        if trace is not None:
            trace.append({"level": len(levels), "set": set(chosen),
                          "weights": dict(current), "reduced": reduced,
                          "residual": residual})
        levels.append(set(chosen))
        current.update(reduced)
        active = {v for v in active if current[v] > 0}

    solution = set()
    for chosen in reversed(levels):
        solution = exchange_step(graph, chosen, solution)
    check_independent_set(graph, solution)
    return solution
