"""Lemma B.14 proposal matching ported to the MPC runtime.

The port re-runs the exact protocol of
:mod:`repro.core.proposal_matching` — same per-node RNG streams
(``stable_rng(seed, node, 1)``, the stream the object simulator hands
the first protocol on a fresh network), same propose/respond dynamics,
same B.14 bipartition splits — but executes it on an
:class:`~repro.mpc.network.MPCNetwork`: partition-local compute plus
one shuffle per simulator round.  Matchings *and* round counts are
therefore bit-identical to ``solve(instance, "matching-proposal")``;
what changes is the accounting (per-machine ledgers, the sublinearity
check) and the adaptive sparsification of outcome-neutral traffic
(``retired`` notices addressed to nodes that already halted — the
object simulator drops those at delivery anyway).

One :class:`MPCNetwork` is shared across the B.14 repetitions so the
machine ledgers accumulate the whole run.
"""

from __future__ import annotations

import math
from typing import Dict, Hashable, Optional, Set, Tuple

import networkx as nx

from ..congest import RoundLedger
from ..core.proposal_matching import (
    ISOLATED,
    MATCHED,
    UNLUCKY,
    lemma_b13_rounds,
    optimal_k,
)
from ..graphs import check_matching, max_degree
from ..utils import stable_rng
from .network import MPCMessage, MPCNetwork


def run_bipartite_proposal(
    network: MPCNetwork,
    sub: nx.Graph,
    left: Set[Hashable],
    eps: float = 0.25,
    k: Optional[int] = None,
    seed: int = 0,
    phases: Optional[int] = None,
) -> Tuple[Set[frozenset], Set[Hashable], int]:
    """One Lemma B.13 run on ``sub`` over the MPC fleet.

    Returns ``(matching, unlucky, rounds)`` — bit-identical to a drained
    :func:`~repro.core.proposal_matching.bipartite_proposal_phases`
    with ``seed`` (each node draws from ``stable_rng(seed, node, 1)``,
    matching the fresh-network stream of the object simulator).
    """

    delta = max_degree(sub)
    if k is None:
        k = optimal_k(delta, eps)
    if phases is None:
        phases = lemma_b13_rounds(delta, eps, k)
    cap = 2 * phases + 4
    order = sorted(sub.nodes, key=repr)
    sides = {v: ("L" if v in left else "R") for v in order}
    neighbors = {
        v: tuple(sorted(sub.neighbors(v), key=repr)) for v in order
    }
    live: Dict[Hashable, Set[Hashable]] = {
        v: set(neighbors[v]) for v in order
    }
    rngs = {v: stable_rng(seed, v, 1) for v in order}
    halted: Set[Hashable] = set()
    outcome: Dict[Hashable, Tuple] = {}
    inboxes: Dict[Hashable, Dict[Hashable, Tuple]] = {}
    rounds = 0

    for round_index in range(cap):
        if len(halted) == len(order):
            break
        outbox: Dict[Hashable, Dict[Hashable, Tuple]] = {}

        def send(sender, dst, payload):
            outbox.setdefault(sender, {})[dst] = payload

        for v in order:
            if v in halted:
                continue
            inbox = inboxes.get(v, {})
            for src, payload in inbox.items():
                if payload and payload[0] == "retired":
                    live[v].discard(src)
            if round_index % 2 == 0:
                accepted = None
                for src, payload in inbox.items():
                    if payload and payload[0] == "accept":
                        accepted = src
                        break
                if accepted is not None:
                    for u in neighbors[v]:
                        send(v, u, ("retired",))
                    halted.add(v)
                    outcome[v] = (MATCHED, accepted)
                elif not live[v]:
                    halted.add(v)
                    outcome[v] = (ISOLATED, None)
                elif round_index // 2 >= phases:
                    halted.add(v)
                    outcome[v] = (UNLUCKY, None)
                elif sides[v] == "L":
                    target = rngs[v].choice(sorted(live[v], key=repr))
                    send(v, target, ("propose",))
            else:
                if sides[v] == "L":
                    continue
                proposers = sorted(
                    (src for src, payload in inbox.items()
                     if payload and payload[0] == "propose"),
                    key=repr,
                )
                if proposers:
                    winner = proposers[-1]
                    for u in neighbors[v]:
                        send(v, u, ("retired",))
                    send(v, winner, ("accept",))
                    halted.add(v)
                    outcome[v] = (MATCHED, winner)

        messages = []
        for sender in sorted(outbox, key=repr):
            for dst in sorted(outbox[sender], key=repr):
                payload = outbox[sender][dst]
                # Retirement notices to halted nodes never get
                # delivered (the object simulator skips them too), so
                # the sparsifier may shed them under load.
                droppable = payload[0] == "retired" and dst in halted
                messages.append(MPCMessage(
                    sender, dst, payload, weight=0.0,
                    droppable=droppable,
                ))
        inboxes = network.exchange(messages, halted=frozenset(halted))
        rounds = round_index + 1

    matching = {
        frozenset((v, out[1]))
        for v, out in outcome.items() if out[0] == MATCHED
    }
    unlucky = {v for v, out in outcome.items() if out[0] == UNLUCKY}
    return matching, unlucky, rounds


def mpc_general_proposal_phases(
    graph: nx.Graph,
    eps: float = 0.25,
    k: Optional[int] = None,
    seed: int = 0,
    repetitions: Optional[int] = None,
    max_rounds: Optional[int] = None,
    capture_state: bool = False,
    resume: Optional[dict] = None,
    network: Optional[MPCNetwork] = None,
):
    """Anytime Lemma B.14 over the MPC fleet.

    A structural twin of
    :func:`~repro.core.proposal_matching.general_proposal_phases` —
    same split RNG (``stable_rng(seed, "b14-splits")``), repetition
    budget, ledger charges, yield tuples
    ``(rounds, matching, final, state)`` and resume payloads — with the
    object-simulator bipartite run swapped for
    :func:`run_bipartite_proposal`.  Draining it yields the exact
    matching and round count of the object simulator; the network's
    machine ledgers accumulate across repetitions.  After a resume the
    protocol state is replayed verbatim but the (freshly built)
    machine ledgers restart at zero — ledgers describe the machines
    that actually ran, not the pre-truncation fleet.
    """

    if network is None:
        network = MPCNetwork(graph, seed=seed)
    if repetitions is None:
        repetitions = max(1, math.ceil(2.0 * math.log(2.0 / eps))) + 1
    rng = stable_rng(seed, "b14-splits")
    ledger = RoundLedger()
    matching: Set[frozenset] = set()
    remaining: Set[Hashable] = set(graph.nodes)
    start_rep = 0
    if resume is not None:
        start_rep = resume["repetition"]
        repetitions = resume["repetitions"]
        matching = set(resume["matching"])
        survivors = resume["remaining"]
        for v in graph.nodes:
            if v not in survivors:
                remaining.discard(v)
        ledger.total = resume["ledger"]["total"]
        ledger.breakdown = dict(resume["ledger"]["breakdown"])
        version, internals, gauss = resume["rng"]
        rng.setstate((version, tuple(internals), gauss))

    def snapshot(next_rep):
        state = None
        if capture_state:
            version, internals, gauss = rng.getstate()
            state = {
                "rounds": ledger.total,
                "repetition": next_rep,
                "repetitions": repetitions,
                "matching": set(matching),
                "remaining": set(remaining),
                "ledger": {"total": ledger.total,
                           "breakdown": dict(ledger.breakdown)},
                "rng": [version, list(internals), gauss],
            }
        return ledger.total, frozenset(matching), \
            next_rep >= repetitions, state

    yield snapshot(start_rep)
    for repetition in range(start_rep, repetitions):
        if max_rounds is not None and ledger.total >= max_rounds:
            return None
        left = {v for v in remaining if rng.random() < 0.5}
        right = remaining - left
        sub = nx.Graph()
        sub.add_nodes_from(remaining)
        sub.add_edges_from(
            (u, v) for u, v in graph.edges
            if (u in left and v in right) or (u in right and v in left)
        )
        ledger.charge(1, "bipartition")
        if sub.number_of_edges() > 0:
            rep_matching, _unlucky, rep_rounds = run_bipartite_proposal(
                network, sub, left, eps=eps, k=k,
                seed=seed + 13 * (repetition + 1),
            )
            ledger.charge(rep_rounds, "bipartite-proposals")
            matching |= rep_matching
            for e in rep_matching:
                remaining -= set(e)
        yield snapshot(repetition + 1)
    check_matching(graph, [tuple(e) for e in matching])
    return matching, ledger.total, ledger


__all__ = [
    "mpc_general_proposal_phases",
    "run_bipartite_proposal",
]
