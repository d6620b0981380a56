"""Greedy weighted MIS by parallel peeling (the maxis-layers kernel).

The greedy weighted independent set — every node joins iff no
higher-priority neighbor joins, priority ``(weight, -rank)`` with rank
from the repr-sorted node order — is the sequential baseline the
local-ratio layer algorithms refine.  This module runs it as a
deterministic peeling process: one priority-exchange round up front,
then one round per sweep in which every undecided node that beats all
its undecided neighbors joins and knocks its neighbors out.  The
result is the unique greedy set, independent of sweep order, which is
what makes it portable to the MPC runtime (:mod:`repro.mpc.greedy`)
with exact objective parity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, Optional, Set, Tuple

import networkx as nx

from ..congest import RoundLedger
from ..graphs import check_independent_set, node_weight
from .stepwise import Checkpoint, opening_checkpoint, phase_names


def greedy_priorities(graph: nx.Graph) -> Dict[Hashable, Tuple[int, int]]:
    """Total priority order: ``(weight, -rank)``, rank from the
    repr-sorted node order — unique, so ties are impossible."""

    order = sorted(graph.nodes, key=repr)
    return {v: (node_weight(graph, v), -rank)
            for rank, v in enumerate(order)}


@dataclass
class GreedyMISResult:
    independent_set: frozenset
    weight: int
    rounds: int
    ledger: RoundLedger


def greedy_mis_phases(
    graph: nx.Graph,
    max_rounds: Optional[int] = None,
    capture_state: bool = False,
    resume: Optional[dict] = None,
):
    """Anytime greedy MIS: one checkpoint per peeling sweep.

    Opens with ``init`` (or ``resume``), then yields ``peel-i``
    checkpoints for the initial state, after the priority-exchange
    charge, and after every sweep.  The partial set is independent at
    every boundary (a sweep only adds nodes whose neighbors it knocks
    out in the same step).  With ``max_rounds`` set, stops
    cooperatively before any charge past the budget and returns
    ``None``; otherwise returns a :class:`GreedyMISResult`.  Fully
    deterministic, so a resumed run trivially reproduces the uncut
    one.
    """

    order = sorted(graph.nodes, key=repr)
    priority = greedy_priorities(graph)
    ledger = RoundLedger()
    chosen: Set[Hashable] = set()
    weight = 0
    undecided: Set[Hashable] = set(graph.nodes)
    exchanged = False
    if resume is not None:
        chosen = set(resume["chosen"])
        weight = resume["weight"]
        survivors = resume["undecided"]
        for v in graph.nodes:
            if v not in survivors:
                undecided.discard(v)
        exchanged = resume["exchanged"]
        ledger.restore(resume["ledger"])
    names = phase_names("peel", start=1)

    def snapshot():
        state = None
        if capture_state:
            state = {
                "rounds": ledger.total,
                "chosen": set(chosen),
                "weight": weight,
                "undecided": set(undecided),
                "exchanged": exchanged,
                "ledger": ledger.state(),
            }
        return Checkpoint(phase=next(names), solution=frozenset(chosen),
                          objective=weight, rounds=ledger.total,
                          final=not undecided, resume_state=state)

    yield opening_checkpoint(resume, chosen, weight)
    yield snapshot()
    if undecided and not exchanged:
        if max_rounds is not None and ledger.total >= max_rounds:
            return None
        ledger.charge(1, "priority-exchange")
        exchanged = True
        yield snapshot()
    while undecided:
        if max_rounds is not None and ledger.total >= max_rounds:
            return None
        joiners = [
            v for v in order
            if v in undecided and all(
                u not in undecided or priority[v] > priority[u]
                for u in graph.neighbors(v)
            )
        ]
        for v in joiners:
            undecided.discard(v)
        for v in joiners:
            chosen.add(v)
            weight += node_weight(graph, v)
            for u in graph.neighbors(v):
                undecided.discard(u)
        ledger.charge(1, "peel")
        yield snapshot()
    check_independent_set(graph, chosen)
    return GreedyMISResult(
        independent_set=frozenset(chosen),
        weight=weight,
        rounds=ledger.total,
        ledger=ledger,
    )


__all__ = [
    "GreedyMISResult",
    "greedy_mis_phases",
    "greedy_priorities",
]
