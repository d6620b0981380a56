"""Lemma B.14 proposal matching on the MPC runtime.

Each Lemma B.13 pass runs
:class:`~repro.core.proposal_matching.ProposalProgram` itself — the
object simulator's reference program — through the simulator's round
loop (:meth:`~repro.congest.network.SynchronousNetwork._drive`).  Only
the delivery step is MPC: every round's in-flight mail passes through
:meth:`~repro.mpc.network.MPCNetwork.exchange`, the fleet's shuffle,
before the next round reads it.  Matchings *and* round counts are
therefore those of ``solve(instance, "matching-proposal")`` by
construction; what the fleet adds is the accounting (per-machine
ledgers, the sublinearity check) and the adaptive sparsification of
outcome-neutral traffic — a message whose recipient has halted is
droppable, because the simulator never delivers it.

The B.14 repetition loop is not duplicated here either:
:func:`~repro.core.proposal_matching.general_proposal_phases` takes the
per-repetition bipartite runner as a callable, and the MPC model passes
:func:`run_bipartite_proposal` bound to one :class:`MPCNetwork`, shared
across the repetitions so the machine ledgers accumulate the whole
run.  After a resume the protocol state is replayed verbatim but the
(freshly built) machine ledgers restart at zero — ledgers describe the
machines that actually ran, not the pre-truncation fleet.
"""

from __future__ import annotations

from typing import Hashable, Optional, Set, Tuple

import networkx as nx

from ..core.proposal_matching import bipartite_proposal_phases
from ..utils import drain
from .network import MPCNetwork, _FleetNetwork


def run_bipartite_proposal(
    network: MPCNetwork,
    sub: nx.Graph,
    left: Set[Hashable],
    eps: float = 0.25,
    k: Optional[int] = None,
    seed: int = 0,
) -> Tuple[Set[frozenset], Set[Hashable], int]:
    """One Lemma B.13 run on ``sub`` over the MPC fleet.

    Returns ``(matching, unlucky, rounds)`` of a drained
    :func:`~repro.core.proposal_matching.bipartite_proposal_phases`
    with ``seed``, whose rounds each end in ``network``'s shuffle.
    """

    outcome = drain(bipartite_proposal_phases(
        sub, left, sub.nodes - left, eps=eps, k=k, seed=seed,
        network=_FleetNetwork(sub, network, seed),
    ))
    return outcome.matching, outcome.unlucky, outcome.rounds


__all__ = ["run_bipartite_proposal"]
