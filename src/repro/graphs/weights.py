"""Weight assignment schemes for nodes and edges.

The paper assumes integer node weights in ``[W]`` with ``W`` polynomial in
``n`` (so a weight fits in one CONGEST message).  These helpers attach a
``weight`` attribute to nodes or edges under several distributions; the
experiments sweep ``W`` to exhibit the ``log W`` factor of Theorem 2.3.
"""

from __future__ import annotations

from typing import Dict, Hashable

import networkx as nx

from ..errors import InvalidInstance
from ..utils import stable_rng


def assign_node_weights(graph: nx.Graph, max_weight: int = 1,
                        scheme: str = "uniform", seed: int = 0) -> nx.Graph:
    """Attach integer node weights in ``[1, max_weight]`` in place.

    Schemes
    -------
    ``uniform``     — i.i.d. uniform on ``[1, W]``.
    ``constant``    — every node has weight ``W`` (unweighted case scaled).
    ``geometric``   — weights concentrated near 1 with an exponential tail.
    ``log-uniform`` — weight 2^U with U uniform on [0, log2 W]: every
                      weight layer of Algorithm 2 is equally occupied,
                      the workload that exposes the log W round factor.
    ``degree``      — weight proportional to ``1 + deg(v)`` (capped at W),
                      an adversarial profile for greedy baselines.
    ``star-trap``   — the Section 1.1 counterexample profile: the highest-
                      id hub gets slightly less than the sum of its
                      neighbors but more than each of them.
    """

    if max_weight < 1:
        raise InvalidInstance(f"max_weight must be >= 1, got {max_weight}")
    rng = stable_rng(seed, "node-weights", scheme, max_weight)
    weights = _node_scheme(graph, max_weight, scheme, rng)
    nx.set_node_attributes(graph, weights, "weight")
    return graph


def _node_scheme(graph: nx.Graph, max_weight: int, scheme: str,
                 rng) -> Dict[Hashable, int]:
    nodes = list(graph.nodes)
    if scheme == "uniform":
        return {v: rng.randint(1, max_weight) for v in nodes}
    if scheme == "constant":
        return {v: max_weight for v in nodes}
    if scheme == "geometric":
        weights = {}
        for v in nodes:
            w = 1
            while w < max_weight and rng.random() < 0.5:
                w *= 2
            weights[v] = min(w, max_weight)
        return weights
    if scheme == "log-uniform":
        top_layer = max(0, (max_weight).bit_length() - 1)
        return {
            v: min(max_weight, 2 ** rng.randint(0, top_layer))
            for v in nodes
        }
    if scheme == "degree":
        return {
            v: min(max_weight, 1 + graph.degree(v)) for v in nodes
        }
    if scheme == "star-trap":
        if not nodes:
            return {}
        hub = max(nodes, key=graph.degree)
        weights = {v: max(1, max_weight // 4) for v in nodes}
        neighbor_sum = sum(
            weights[u] for u in graph.neighbors(hub)
        )
        # Strictly heavier than any neighbor, strictly lighter than their sum.
        weights[hub] = max(weights[hub] + 1, neighbor_sum - 1)
        return weights
    raise InvalidInstance(f"unknown node weight scheme {scheme!r}")


def assign_edge_weights(graph: nx.Graph, max_weight: int = 1,
                        scheme: str = "uniform", seed: int = 0) -> nx.Graph:
    """Attach integer edge weights in ``[1, max_weight]`` in place.

    Schemes: ``uniform``, ``constant`` and ``bimodal`` (a heavy class worth
    ``W`` and a light class worth 1 — the workload where weight-oblivious
    maximal matching does poorly but the local-ratio algorithms shine).
    """

    if max_weight < 1:
        raise InvalidInstance(f"max_weight must be >= 1, got {max_weight}")
    rng = stable_rng(seed, "edge-weights", scheme, max_weight)
    if scheme == "uniform":
        weights = {e: rng.randint(1, max_weight) for e in graph.edges}
    elif scheme == "constant":
        weights = {e: max_weight for e in graph.edges}
    elif scheme == "bimodal":
        weights = {
            e: max_weight if rng.random() < 0.2 else 1 for e in graph.edges
        }
    else:
        raise InvalidInstance(f"unknown edge weight scheme {scheme!r}")
    nx.set_edge_attributes(graph, weights, "weight")
    return graph


def node_weight(graph: nx.Graph, node: Hashable) -> int:
    """Weight of ``node`` (defaults to 1 when unweighted)."""

    return graph.nodes[node].get("weight", 1)


def edge_weight(graph: nx.Graph, u: Hashable, v: Hashable) -> int:
    """Weight of edge ``{u, v}`` (defaults to 1 when unweighted)."""

    return graph.edges[u, v].get("weight", 1)


def max_node_weight(graph: nx.Graph) -> int:
    """W — the maximum node weight (1 for an empty or unweighted graph)."""

    return max((w for _, w in graph.nodes(data="weight", default=1)),
               default=1)
