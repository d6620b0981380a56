"""Graph workload generators for the experiments.

All generators return :class:`networkx.Graph` with integer node labels
``0..n-1`` and are deterministic for a given seed.  They cover the graph
families the paper's bounds are parameterized by: bounded-degree graphs
(random regular), sparse random graphs (G(n, p)), structured topologies
(rings, paths, trees, grids), the adversarial star of Section 1.1, and
bipartite graphs for the Appendix B algorithms.
"""

from __future__ import annotations

import math
from typing import Optional

import networkx as nx

from ..errors import InvalidInstance
from ..utils import stable_rng


def empty_graph(n: int) -> nx.Graph:
    """n isolated nodes (degenerate input exercised by edge-case tests)."""

    graph = nx.Graph()
    graph.add_nodes_from(range(n))
    return graph


def path_graph(n: int) -> nx.Graph:
    return nx.path_graph(n)


def cycle_graph(n: int) -> nx.Graph:
    if n < 3:
        raise InvalidInstance(f"a cycle needs at least 3 nodes, got {n}")
    return nx.cycle_graph(n)


def star_graph(leaves: int) -> nx.Graph:
    """A star: node 0 is the hub, 1..leaves are leaves.

    This is the topology of the Section 1.1 counterexample showing why all
    nodes must not perform local-ratio weight reductions simultaneously.
    """

    return nx.star_graph(leaves)


def complete_graph(n: int) -> nx.Graph:
    return nx.complete_graph(n)


def grid_graph(rows: int, cols: int) -> nx.Graph:
    """2D grid relabeled to integers (max degree 4)."""

    grid = nx.grid_2d_graph(rows, cols)
    return nx.convert_node_labels_to_integers(grid, ordering="sorted")


def gnp_graph(n: int, p: float, seed: int = 0) -> nx.Graph:
    """Erdős–Rényi G(n, p) with isolated-node-friendly labeling."""

    rng = stable_rng(seed, "gnp", n, p)
    graph = nx.Graph()
    graph.add_nodes_from(range(n))
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                graph.add_edge(u, v)
    return graph


def sparse_gnp_graph(n: int, p: float, seed: int = 0) -> nx.Graph:
    """Erdős–Rényi G(n, p) in O(n + m) expected time.

    The Batagelj–Brandes geometric-skipping sampler: instead of flipping
    a coin per pair (the O(n²) loop of :func:`gnp_graph`), it draws the
    gap to the next present edge from the geometric distribution.  Made
    for the large sparse workloads of the perf experiments — n = 10⁵ at
    constant average degree is seconds, not minutes.  The edge set
    differs from :func:`gnp_graph` at equal seeds (different sampling
    order), so the two families are distinct workload recipes, not
    interchangeable ones.
    """

    if not 0.0 <= p <= 1.0:
        raise InvalidInstance(f"edge probability must be in [0, 1], got {p}")
    graph = nx.Graph()
    graph.add_nodes_from(range(n))
    if n < 2 or p == 0.0:
        return graph
    if p == 1.0:
        graph.add_edges_from(
            (u, v) for u in range(n) for v in range(u + 1, n)
        )
        return graph
    rng = stable_rng(seed, "sparse-gnp", n, p)
    log_q = math.log(1.0 - p)
    v, w = 1, -1
    while v < n:
        # Gap to the next sampled pair in the row-major pair order.
        w += 1 + int(math.log(1.0 - rng.random()) / log_q)
        while w >= v and v < n:
            w -= v
            v += 1
        if v < n:
            graph.add_edge(v, w)
    return graph


def random_regular_graph(degree: int, n: int, seed: int = 0) -> nx.Graph:
    """d-regular random graph (n*d must be even, d < n)."""

    if degree >= n or (degree * n) % 2 != 0:
        raise InvalidInstance(
            f"no {degree}-regular graph on {n} nodes exists"
        )
    rng = stable_rng(seed, "regular", degree, n)
    return nx.random_regular_graph(degree, n, seed=rng.randrange(2**31))


def random_tree(n: int, seed: int = 0) -> nx.Graph:
    """Uniform random labeled tree via a Prüfer sequence."""

    if n <= 0:
        raise InvalidInstance("a tree needs at least one node")
    if n == 1:
        return empty_graph(1)
    if n == 2:
        graph = empty_graph(2)
        graph.add_edge(0, 1)
        return graph
    rng = stable_rng(seed, "tree", n)
    prufer = [rng.randrange(n) for _ in range(n - 2)]
    return nx.from_prufer_sequence(prufer)


def power_law_graph(n: int, exponent: float = 2.5, seed: int = 0,
                    max_degree: Optional[int] = None) -> nx.Graph:
    """Configuration-model-style graph with a power-law degree profile.

    Self-loops and parallel edges are discarded, so realized degrees are
    at most the drawn targets.  Used for heterogeneous-degree workloads.
    """

    rng = stable_rng(seed, "powerlaw", n, exponent)
    cap = max_degree if max_degree is not None else max(2, int(math.sqrt(n)))
    degrees = []
    for _ in range(n):
        # Inverse-CDF sample of P(d) ∝ d^-exponent over 1..cap.
        u = rng.random()
        d = int(round((1 - u + u * cap ** (1 - exponent))
                      ** (1 / (1 - exponent))))
        degrees.append(max(1, min(cap, d)))
    if sum(degrees) % 2 == 1:
        degrees[0] += 1
    stubs = [node for node, d in enumerate(degrees) for _ in range(d)]
    rng.shuffle(stubs)
    graph = empty_graph(n)
    for i in range(0, len(stubs) - 1, 2):
        u, v = stubs[i], stubs[i + 1]
        if u != v:
            graph.add_edge(u, v)
    return graph


def random_bipartite_graph(left: int, right: int, p: float,
                           seed: int = 0) -> nx.Graph:
    """Bipartite G(left, right, p); nodes carry a ``side`` attribute."""

    rng = stable_rng(seed, "bipartite", left, right, p)
    graph = nx.Graph()
    for u in range(left):
        graph.add_node(u, side="A")
    for v in range(left, left + right):
        graph.add_node(v, side="B")
    for u in range(left):
        for v in range(left, left + right):
            if rng.random() < p:
                graph.add_edge(u, v)
    return graph


def bipartite_regular_graph(side_size: int, degree: int,
                            seed: int = 0) -> nx.Graph:
    """d-regular bipartite graph built from d random perfect matchings."""

    if degree > side_size:
        raise InvalidInstance("degree cannot exceed the side size")
    rng = stable_rng(seed, "biregular", side_size, degree)
    graph = nx.Graph()
    for u in range(side_size):
        graph.add_node(u, side="A")
    for v in range(side_size, 2 * side_size):
        graph.add_node(v, side="B")
    for _ in range(degree):
        perm = list(range(side_size, 2 * side_size))
        rng.shuffle(perm)
        for u in range(side_size):
            graph.add_edge(u, perm[u])
    return graph


def layered_graph(layers: int, width: int, seed: int = 0,
                  p: float = 1.0) -> nx.Graph:
    """A chain of independent layers with (random) inter-layer edges.

    Layer ``i`` holds ``width`` mutually non-adjacent nodes; consecutive
    layers are joined completely (``p = 1``) or by random bipartite
    edges.  Each node carries a ``layer`` attribute.  With weights
    ``2^layer`` this is the workload that *serializes* Algorithm 2's
    weight layers — every node has higher-layer neighbors until the top
    layer retires — exhibiting the Theorem 2.3 log W round factor that
    typical sparse graphs hide behind local parallelism.
    """

    if layers < 1 or width < 1:
        raise InvalidInstance("layers and width must be positive")
    rng = stable_rng(seed, "layered", layers, width, p)
    graph = nx.Graph()
    for layer in range(layers):
        for j in range(width):
            graph.add_node(layer * width + j, layer=layer)
    for layer in range(layers - 1):
        for j in range(width):
            for k in range(width):
                if p >= 1.0 or rng.random() < p:
                    graph.add_edge(layer * width + j,
                                   (layer + 1) * width + k)
    return graph


def caterpillar_graph(spine: int, legs_per_node: int) -> nx.Graph:
    """A path with ``legs_per_node`` pendant leaves on each spine node."""

    graph = nx.path_graph(spine)
    next_label = spine
    for s in range(spine):
        for _ in range(legs_per_node):
            graph.add_edge(s, next_label)
            next_label += 1
    return graph


def max_degree(graph: nx.Graph) -> int:
    """Δ of the graph (0 for an empty node set), as ``graph.degree()``
    counts it.

    A simple undirected graph's degree is its adjacency row's length,
    plus one for a self-loop (networkx counts a loop twice), so Δ is
    the longest row, plus one when a longest row holds its own node.
    Directed graphs and multigraphs are scanned through
    ``graph.degree()``.
    """

    if graph.is_directed() or graph.is_multigraph():
        return max((d for _, d in graph.degree()), default=0)
    adjacency = graph._adj
    top = max(map(len, adjacency.values()), default=0)
    return top + any(v in neighbors for v, neighbors in adjacency.items()
                     if len(neighbors) == top)


FAMILIES = {
    "path": lambda n, seed: path_graph(n),
    "cycle": lambda n, seed: cycle_graph(max(3, n)),
    "tree": random_tree,
    "gnp-sparse": lambda n, seed: gnp_graph(n, 3.0 / max(1, n - 1), seed),
    "gnp-dense": lambda n, seed: gnp_graph(n, 0.3, seed),
    "regular-4": lambda n, seed: random_regular_graph(
        4, n if (n * 4) % 2 == 0 else n + 1, seed),
    "grid": lambda n, seed: grid_graph(max(2, int(math.sqrt(n))),
                                       max(2, int(math.sqrt(n)))),
    "star": lambda n, seed: star_graph(max(2, n - 1)),
}
