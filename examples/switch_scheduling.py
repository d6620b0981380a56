"""Crossbar switch scheduling via distributed bipartite matching.

Scenario: an input-queued network switch must, every scheduling epoch,
connect input ports to output ports — a bipartite matching — and wants
to serve as many (or as heavily backlogged) queues as possible.  Port
controllers can only talk to ports they share a queue with, which is
exactly the CONGEST model on the bipartite demand graph.

This example schedules one epoch three ways:

* the Appendix B.4 proposal algorithm (a handful of rounds, (2+ε)),
* the Appendix B.3 (1+ε) augmenting-path algorithm,
* the exact maximum-cardinality matching (Edmonds) as the oracle.

Run:  python examples/switch_scheduling.py
"""

from __future__ import annotations

import networkx as nx

from repro.api import Instance, solve
from repro.graphs import random_bipartite_graph
from repro.matching import bipartite_sides, exact_max_cardinality_matching
from repro.utils import stable_rng


def build_demand_graph(ports: int = 24, load: float = 0.2,
                       seed: int = 11) -> nx.Graph:
    """Bipartite demand graph: edge (i, o) ⇔ input i has cells for
    output o; edge weight = queue length."""

    graph = random_bipartite_graph(ports, ports, load, seed=seed)
    rng = stable_rng(seed, "queues")
    for u, v in graph.edges:
        graph.edges[u, v]["weight"] = rng.randint(1, 16)
    return graph


def main() -> None:
    demand = build_demand_graph()
    left, right = bipartite_sides(demand)
    print(f"switch: {len(left)}x{len(right)} ports, "
          f"{demand.number_of_edges()} non-empty queues")

    optimum = exact_max_cardinality_matching(demand)
    print(f"\noracle (exact maximum-cardinality matching): {len(optimum)} "
          f"connections")

    proposal = solve(Instance(demand, eps=0.25, seed=1),
                     "matching-proposal-bipartite")
    print(f"proposal algorithm (Lemma B.13): {proposal.size} "
          f"connections in {proposal.rounds} rounds "
          f"({len(proposal.extras['unlucky'])} unlucky ports)")

    one_eps = solve(Instance(demand, eps=0.5, seed=2),
                    "matching-oneeps-bipartite")
    deactivated = one_eps.extras["deactivated"]
    print(f"(1+ε) augmenting-path algorithm (Appendix B.3): "
          f"{one_eps.size} connections "
          f"({len(deactivated)} ports deactivated)")

    # Sanity: the distributed schedules are real matchings and within
    # their factors of the oracle (report.bound is 2+ε and 1+ε).
    assert proposal.bound * proposal.size >= len(optimum)
    assert one_eps.bound * (one_eps.size + len(deactivated)) >= len(optimum)
    served = one_eps.size / max(1, len(optimum))
    print(f"\n(1+ε) schedule serves {served:.0%} of the optimal "
          f"connection count")


if __name__ == "__main__":
    main()
