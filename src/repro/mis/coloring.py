"""Deterministic distributed (Δ+1)-coloring.

Algorithm 3 consumes a (Δ+1)-coloring computed by a deterministic
distributed algorithm; the paper charges O(Δ + log* n) rounds for it,
citing [BEK14, Bar15].  We implement the classical constructive pipeline:

1. **Linial color reduction** via polynomial evaluation families over
   GF(q): given a proper m-coloring, each node encodes its color as a
   degree-(k−1) polynomial (its base-q digits) and picks an evaluation
   point x where it differs from all neighbors; the pair (x, f(x)) is the
   new color in a palette of q².  Choosing the prime q > Δ(k−1) makes the
   point exist.  O(log* n) iterations shrink n colors to O(Δ² log² Δ).
2. **Class-by-class reduction**: color classes above Δ+1 recolor greedily
   one class per round (each class is an independent set, so the whole
   class moves simultaneously).

Step 2 costs O(Δ²) rounds rather than BEK14's O(Δ); DESIGN.md §4 records
this substitution.  :class:`ColoringResult` reports both the measured
rounds of this pipeline and the analytic O(Δ + log* n) the paper charges
with [BEK14] as a black box.

Two implementations compute the same pipeline.  When numpy is
importable (the rule :func:`~repro.congest.make_network` uses to pick
the array simulator), :func:`delta_plus_one_coloring` runs both steps
vectorised over the graph's cached
:class:`~repro.congest.array_network.GraphCSR`: ``csr.rank`` is the
``repr``-sorted id coloring, a Linial step tries one evaluation point
at a time for the nodes still unresolved, and the reduction buckets
the color classes once.  Otherwise — and for graphs with self-loops,
which no proper coloring exists for — it runs the pure-Python
functions below, which also serve as the reference.  The two paths
return identical colors, rounds and dict order (pinned by
``tests/mis/test_coloring_pins.py``); since the paper charges the black
box analytically, the choice changes no simulated round either.  Either
way the result is checked against the graph itself, never only the
cached CSR it was computed from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Hashable

import networkx as nx

try:  # numpy is an optional accelerator; see the module docstring.
    import numpy as np
except ImportError:  # pragma: no cover - the image bakes numpy in
    np = None

from ..errors import AlgorithmContractViolation
from ..graphs import check_coloring, max_degree
from ..utils import log_star, next_prime


@dataclass
class ColoringResult:
    """A proper coloring plus its round accounting."""

    colors: Dict[Hashable, int]
    palette: int
    linial_rounds: int
    reduction_rounds: int
    accounted_bek14_rounds: int

    @property
    def measured_rounds(self) -> int:
        return self.linial_rounds + self.reduction_rounds


def _linial_parameters(m: int, delta: int) -> tuple[int, int]:
    """Return ``(q, k)`` for one Linial step on an m-coloring, degree Δ."""

    q = next_prime(max(3, delta + 2))
    for _ in range(8):  # the fixpoint stabilizes in a couple of iterations
        k = max(1, math.ceil(math.log(max(2, m)) / math.log(q)))
        q_needed = next_prime(max(q, delta * max(0, k - 1) + 1))
        if q_needed == q:
            break
        q = q_needed
    k = max(1, math.ceil(math.log(max(2, m)) / math.log(q)))
    return q, k


def linial_step(graph: nx.Graph, colors: Dict[Hashable, int], q: int,
                k: int) -> Dict[Hashable, int]:
    """One Linial reduction round: m colors → at most q² colors.

    Requires the input coloring proper with all colors < q**k, and
    q > Δ(k−1).  Each node needs only its neighbors' current colors —
    one CONGEST round.
    """

    def digits(color: int) -> list[int]:
        out = []
        for _ in range(k):
            out.append(color % q)
            color //= q
        return out

    def evaluate(poly: list[int], x: int) -> int:
        value = 0
        for coefficient in reversed(poly):
            value = (value * x + coefficient) % q
        return value

    polynomials = {v: digits(c) for v, c in colors.items()}
    new_colors: Dict[Hashable, int] = {}
    for v in graph.nodes:
        poly_v = polynomials[v]
        for x in range(q):
            value = evaluate(poly_v, x)
            if all(evaluate(polynomials[u], x) != value
                   for u in graph.neighbors(v)):
                new_colors[v] = x * q + value
                break
        else:  # pragma: no cover - impossible when q > Δ(k-1)
            raise AlgorithmContractViolation(
                f"no good evaluation point for node {v!r} (q={q}, k={k})"
            )
    return new_colors


def linial_coloring(graph: nx.Graph) -> tuple[Dict[Hashable, int], int, int]:
    """Iterate Linial steps from the id-coloring until no progress.

    Returns ``(colors, rounds, palette_bound)`` with palette_bound =
    O(Δ² log² Δ); the number of rounds is O(log* n).
    """

    delta = max_degree(graph)
    ordered = sorted(graph.nodes, key=repr)
    colors = {v: i for i, v in enumerate(ordered)}
    m = max(len(ordered), 2)
    rounds = 0
    while True:
        q, k = _linial_parameters(m, delta)
        if q * q >= m:
            break
        colors = linial_step(graph, colors, q, k)
        check_coloring(graph, colors)
        m = q * q
        rounds += 1
    return colors, rounds, m


def reduce_palette(graph: nx.Graph, colors: Dict[Hashable, int],
                   target: int) -> tuple[Dict[Hashable, int], int]:
    """Class-by-class reduction to ``target`` colors (one round per class).

    Processes color classes from the top down; each class is an
    independent set, so all its nodes recolor greedily in the same round.
    Requires ``target >= Δ+1``.
    """

    delta = max_degree(graph)
    if target < delta + 1:
        raise AlgorithmContractViolation(
            f"cannot reduce below Δ+1 = {delta + 1} colors (asked {target})"
        )
    colors = dict(colors)
    palette = max(colors.values(), default=-1) + 1
    rounds = 0
    for c in range(palette - 1, target - 1, -1):
        rounds += 1
        for v in [u for u, col in colors.items() if col == c]:
            taken = {colors[u] for u in graph.neighbors(v)}
            replacement = 0
            while replacement in taken:
                replacement += 1
            colors[v] = replacement
    return colors, rounds


# ----------------------------------------------------------------------
# The vectorised pipeline (numpy over the cached GraphCSR)
# ----------------------------------------------------------------------
def _check_array_coloring(csr, colors) -> None:
    """:func:`~repro.graphs.check_coloring`'s properness test over a
    CSR color array."""

    clash = np.flatnonzero(colors[csr.rows] == colors[csr.indices])
    if clash.size:
        p = int(clash[0])
        u, v = csr.nodes[int(csr.rows[p])], csr.nodes[int(csr.indices[p])]
        raise AlgorithmContractViolation(
            f"adjacent nodes {u!r}, {v!r} share color "
            f"{int(colors[csr.rows[p]])!r}"
        )


def _linial_step_array(csr, colors, q: int, k: int):
    """:func:`linial_step` on a color array.

    Evaluation points are tried in increasing order, each only for the
    nodes still unresolved (most resolve at x ≤ 1), so every node lands
    on the first point where its polynomial differs from all of its
    neighbors' — exactly the point the per-node loop picks.
    """

    digits = []
    rest = colors
    for _ in range(k):
        digits.append(rest % q)
        rest = rest // q
    rows, indices = csr.rows, csr.indices
    new = np.empty_like(colors)
    pending = np.arange(csr.n)
    edges = np.arange(csr.m2)  # the positions in pending rows
    for x in range(q):
        value = np.zeros_like(colors)
        for coefficient in reversed(digits):
            value = (value * x + coefficient) % q
        src = rows[edges]
        blocked = np.zeros(csr.n, dtype=bool)
        blocked[src[value[src] == value[indices[edges]]]] = True
        done = pending[~blocked[pending]]
        new[done] = x * q + value[done]
        pending = pending[blocked[pending]]
        if not pending.size:
            return new
        edges = edges[blocked[src]]
    raise AlgorithmContractViolation(  # pragma: no cover - q > Δ(k-1)
        f"no good evaluation point for node {csr.nodes[int(pending[0])]!r} "
        f"(q={q}, k={k})"
    )


def _greedy_class_colors(csr, colors, members):
    """The smallest color no neighbor of each member holds (its mex).

    A node's mex is at most its degree, so each member gets ``deg + 1``
    slots in one flat presence array, and the first empty slot of each
    segment is its new color.
    """

    degree = csr.degree[members]
    owner = np.repeat(np.arange(members.size), degree)
    first = np.cumsum(degree) - degree
    positions = (csr.indptr[members][owner]
                 + np.arange(owner.size) - first[owner])
    taken = colors[csr.indices[positions]]
    useful = taken <= degree[owner]
    slots = degree + 1
    base = np.cumsum(slots) - slots
    present = np.zeros(int(slots.sum()), dtype=bool)
    present[base[owner[useful]] + taken[useful]] = True
    local = np.arange(present.size) - np.repeat(base, slots)
    return np.minimum.reduceat(np.where(present, present.size, local), base)


def _reduce_palette_array(csr, colors, target: int):
    """:func:`reduce_palette` on a color array.

    Classes are bucketed once: a class keeps its members until its own
    round (recolored nodes always land below ``target``), and each class
    is independent, so all members take their mex at once.
    """

    palette = int(colors.max(initial=-1)) + 1
    if palette <= target:
        return colors, 0
    colors = colors.copy()
    order = np.argsort(colors, kind="stable")
    bounds = np.searchsorted(colors[order], np.arange(palette + 1))
    for c in range(palette - 1, target - 1, -1):
        members = order[bounds[c]:bounds[c + 1]]
        if members.size:
            colors[members] = _greedy_class_colors(csr, colors, members)
    return colors, palette - target


def _array_coloring(graph: nx.Graph):
    """The whole pipeline on numpy arrays: ``(colors, delta,
    linial_rounds, reduction_rounds)``, or ``None`` when the pure-Python
    path must run (no nodes, or self-loops)."""

    from ..congest.array_network import graph_csr

    if graph.number_of_nodes() == 0:
        return None
    csr = graph_csr(graph)
    if (csr.rows == csr.indices).any():
        return None
    delta = int(csr.degree.max())
    colors = csr.rank
    m = max(csr.n, 2)
    linial_rounds = 0
    while True:
        q, k = _linial_parameters(m, delta)
        if q * q >= m:
            break
        colors = _linial_step_array(csr, colors, q, k)
        _check_array_coloring(csr, colors)
        m = q * q
        linial_rounds += 1
    colors, reduction_rounds = _reduce_palette_array(csr, colors, delta + 1)
    # Same key order as the Python path: a Linial step rebuilds the
    # dict in graph order, the id coloring is in repr order.
    order = (np.arange(csr.n) if linial_rounds
             else np.argsort(csr.rank, kind="stable"))
    nodes = csr.nodes
    colors_by_node = {nodes[i]: c for i, c in zip(order.tolist(),
                                                  colors[order].tolist())}
    return colors_by_node, delta, linial_rounds, reduction_rounds


def delta_plus_one_coloring(graph: nx.Graph) -> ColoringResult:
    """Full deterministic (Δ+1)-coloring pipeline with round accounting."""

    computed = _array_coloring(graph) if np is not None else None
    if computed is not None:
        colors, delta, linial_rounds, reduction_rounds = computed
    else:
        delta = max_degree(graph)
        colors, linial_rounds, _ = linial_coloring(graph)
        colors, reduction_rounds = reduce_palette(graph, colors, delta + 1)
    # Against the graph itself, not the CSR the array path colored: a
    # cached CSR that missed a degree-preserving rewire fails here.
    check_coloring(graph, colors, palette_size=delta + 1)
    n = max(2, graph.number_of_nodes())
    accounted = delta + log_star(n) + 1
    return ColoringResult(
        colors=colors,
        palette=delta + 1,
        linial_rounds=linial_rounds,
        reduction_rounds=reduction_rounds,
        accounted_bek14_rounds=accounted,
    )
