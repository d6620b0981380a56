"""Section 2.4 / Theorem 2.10 — 2-approximate maximum weight matching.

A maximum-weight independent set of the line graph ``L(G)`` is a
maximum-weight matching of ``G``, and in ``L(G)`` the largest independent
set inside any closed neighborhood ``N[e]`` has size 2, so the local-ratio
MaxIS algorithms of Section 2 are *2*-approximations there (the Δ in
Lemma 2.2's charging argument becomes 2).

Both MaxIS algorithms of this library are local aggregation algorithms
(Theorem 2.9) — their neighbor access is AND/OR/SUM/MAX folds — so by
Theorem 2.8 they run on the line graph in CONGEST with no congestion
penalty.  :func:`matching_lines_phases` executes them on ``L(G)`` with
an optional :class:`~repro.congest.CongestionAudit` that measures
exactly that claim.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Set

import networkx as nx

from ..congest import CongestionAudit, line_graph
from ..congest.network import CONGEST, SynchronousNetwork
from ..errors import InvalidInstance
from ..graphs import check_matching, edge_weight, max_node_weight
from ..mis.coloring import delta_plus_one_coloring
from .maxis_coloring import MaxISColoringProgram
from .maxis_coloring import IN_IS as COLORING_IN_IS
from .maxis_layers import IN_IS, MaxISLayersProgram
from .stepwise import opening_checkpoint, stepper_checkpoints


@dataclass
class MatchingResult:
    """A matching, its weight, and the rounds the algorithm used."""

    matching: Set[frozenset]
    weight: int
    rounds: int
    audit: Optional[CongestionAudit] = None


def matching_lines_phases(
    graph: nx.Graph,
    method: str = "layers",
    seed: int = 0,
    audit: Optional[CongestionAudit] = None,
    max_rounds: Optional[int] = None,
    capture_state: bool = False,
    resume: Optional[dict] = None,
):
    """Anytime Theorem 2.10: MaxIS on ``L(G)``, one checkpoint per
    selection phase of the underlying MaxIS engine.

    Opens with ``init`` (or ``resume``) and yields ``selection-i``
    checkpoints whose objective is the matching's weight; the
    matching is vertex-disjoint at every boundary because the line
    graph's independent-set invariant holds at every prefix.  The
    simulator runs on ``L(G)``, so checkpoints report no bits.
    Returns the usual :class:`MatchingResult` on completion, ``None``
    when ``max_rounds`` cuts the run cooperatively.

    ``method`` selects the MaxIS engine: ``"layers"`` (Algorithm 2,
    randomized, O(MIS·log W) rounds) or ``"coloring"`` (Algorithm 3,
    deterministic, O(Δ + log* n) rounds with the coloring as a black
    box).  Edge weights come from the ``weight`` attribute (default
    1).  ``capture_state`` / ``resume`` follow the
    :func:`~repro.core.maxis_layers.maxis_layers_phases` protocol; the
    line graph is deterministic and rebuilt at resume, never
    serialized.
    """

    matching: Set[frozenset] = set()
    weight = 0
    sim_state = None
    if resume is not None:
        matching = set(resume["matching"])
        weight = resume["weight"]
        sim_state = resume["sim"]
    yield opening_checkpoint(resume, matching, weight)
    if graph.number_of_edges() == 0:
        return MatchingResult(matching=set(), weight=0, rounds=0,
                              audit=audit)

    lg = line_graph(graph)
    # An explicit budget always wins — including max_rounds=0, which
    # must truncate at the initial state, not fall back to the default
    # cap (`or` would swallow it).
    if method == "layers":
        w = max(2, max_node_weight(lg))
        n = max(2, lg.number_of_nodes())
        budget = max_rounds if max_rounds is not None else 600 * (
            (math.ceil(math.log2(n)) + 2) * (math.ceil(math.log2(w)) + 2)
        )

        def factory(e):
            return MaxISLayersProgram(lg.nodes[e].get("weight", 1))

        winner_output = IN_IS
        run_label = "mwm-2approx-layers"
        checkpoint_every = 3
    elif method == "coloring":
        coloring = delta_plus_one_coloring(lg)

        def factory(e):
            neighbor_colors = {
                e2: coloring.colors[e2] for e2 in lg.neighbors(e)
            }
            return MaxISColoringProgram(
                weight=lg.nodes[e].get("weight", 1),
                color=coloring.colors[e],
                neighbor_colors=neighbor_colors,
            )

        budget = max_rounds if max_rounds is not None else (
            20 * (coloring.palette + 2) + 4 * lg.number_of_nodes()
        )
        winner_output = COLORING_IN_IS
        run_label = "mwm-2approx-coloring"
        checkpoint_every = 1
    else:
        raise InvalidInstance(f"unknown method {method!r}")

    # Same construction as run_on_line_graph, unrolled because the
    # audit hook and the stepwise driver both need the network object.
    network = SynchronousNetwork(lg, model=CONGEST, seed=seed)
    if audit is not None:
        def trace(round_index, envelope):
            audit.record_line_message(round_index, envelope.src,
                                      envelope.dst)
            audit.record_aggregated_round(round_index, graph)

        network.trace = trace

    stepper = network.run_stepwise(
        factory,
        max_rounds=budget,
        label=run_label,
        stop_on_limit=True,
        checkpoint_every=checkpoint_every,
        capture_state=capture_state,
        resume_state=sim_state,
    )

    def fold(newly_halted):
        nonlocal weight
        for line_node, output in newly_halted:
            if output == winner_output:
                matching.add(frozenset(line_node))
                weight += edge_weight(graph, *line_node)
        return frozenset(matching), weight

    def make_state(rounds, objective, sim):
        return {"rounds": rounds, "method": method,
                "matching": set(matching), "weight": objective,
                "sim": sim}

    result = yield from stepper_checkpoints(stepper, "selection", fold,
                                            make_state)
    check_matching(graph, [tuple(e) for e in matching])
    if not result.completed:
        return None
    return MatchingResult(matching=set(matching), weight=weight,
                          rounds=result.rounds, audit=audit)

