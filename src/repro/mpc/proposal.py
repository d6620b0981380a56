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

The B.14 repetition loop itself is not duplicated here:
:func:`~repro.core.proposal_matching.general_proposal_phases` takes the
per-repetition bipartite runner as a callable, and the MPC model passes
:func:`run_bipartite_proposal` bound to one :class:`MPCNetwork`, shared
across the repetitions so the machine ledgers accumulate the whole
run.  After a resume the protocol state is replayed verbatim but the
(freshly built) machine ledgers restart at zero — ledgers describe the
machines that actually ran, not the pre-truncation fleet.
"""

from __future__ import annotations

from typing import Dict, Hashable, Optional, Set, Tuple

import networkx as nx

from ..core.proposal_matching import (
    ISOLATED,
    MATCHED,
    UNLUCKY,
    lemma_b13_rounds,
    optimal_k,
)
from ..graphs import max_degree
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


__all__ = ["run_bipartite_proposal"]
