"""Appendix B.4 — the alternative fast (2+ε) unweighted matching.

Bipartite algorithm (Lemma B.13): every round, each left node proposes on
a uniformly random *remaining* incident edge; each right node accepts the
proposal with the highest id and the pair retires.  For any K, after
O(K log 1/ε + log Δ / log K) rounds each left node is matched, isolated,
or *unlucky* with probability ≤ ε/2 — per round, either a left node's
live degree fell by a factor K or its proposal succeeded with probability
≥ 1/K (the lemma's dichotomy).  The guarantee is per-node and independent
of other nodes' randomness, which gives the exponential concentration the
paper highlights (footnote 8).

General graphs (Lemma B.14): O(log 1/ε) repetitions of "randomly split
into left/right, run the bipartite algorithm on the crossing edges,
remove matched nodes".

Both run as genuine message-passing programs on the simulator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Hashable, Optional, Set

import networkx as nx

from ..congest import (
    NodeContext,
    NodeProgram,
    RoundLedger,
    SynchronousNetwork,
    make_network,
)
from ..errors import InvalidInstance
from ..graphs import check_matching, max_degree
from ..utils import drain, restore_rng, rng_state, stable_rng
from .stepwise import (
    Checkpoint,
    opening_checkpoint,
    phase_names,
    stepper_checkpoints,
)

MATCHED = "matched"
UNLUCKY = "unlucky"
ISOLATED = "isolated"


def lemma_b13_rounds(delta: int, eps: float, k: int) -> int:
    """The O(K log 1/ε + log Δ / log K) phase budget of Lemma B.13."""

    if k < 2:
        raise InvalidInstance(f"K must be >= 2, got {k}")
    delta = max(2, delta)
    return max(1, math.ceil(
        3.0 * (k * math.log(2.0 / eps)
               + math.log(delta) / math.log(k))
    ))


def optimal_k(delta: int, eps: float) -> int:
    """K minimizing the Lemma B.13 bound (the paper's optimized choice
    gives O(log Δ / log(log Δ / log 1/ε)) rounds)."""

    best_k, best_val = 2, float("inf")
    for k in range(2, max(3, delta + 2)):
        val = k * math.log(2.0 / eps) + math.log(max(2, delta)) / math.log(k)
        if val < best_val:
            best_k, best_val = k, val
    return best_k


class ProposalProgram(NodeProgram):
    """One node of the bipartite proposal algorithm.

    Two rounds per phase: left nodes propose, right nodes accept the
    highest-id proposal (acceptance is a commitment — the proposer always
    honors it).  Matched nodes announce ``retired`` so neighbors prune
    their live edge lists.  After ``phases`` phases, a left node with
    live edges left halts ``unlucky``; right nodes halt when all
    neighbors retired (or the budget ends).
    """

    def __init__(self, side: str, phases: int):
        if side not in ("L", "R"):
            raise InvalidInstance(f"side must be 'L' or 'R', got {side!r}")
        self.side = side
        self.phases = phases

    def on_start(self, ctx: NodeContext) -> None:
        self.live: Set[Hashable] = set(ctx.neighbors)
        self.proposed_to: Optional[Hashable] = None

    # -- checkpoint support (resume protocol) --------------------------
    def export_state(self) -> dict:
        return {
            "live": set(self.live),
            "proposed_to": self.proposed_to,
        }

    def restore_state(self, state: dict) -> None:
        self.live = set(state["live"])
        self.proposed_to = state["proposed_to"]

    def on_round(self, ctx: NodeContext) -> None:
        for src, payload in ctx.inbox.items():
            if payload and payload[0] == "retired":
                self.live.discard(src)
        if ctx.round % 2 == 0:
            self._propose_step(ctx)
        else:
            self._respond_step(ctx)

    def _propose_step(self, ctx: NodeContext) -> None:
        # An accept from the previous respond step seals the match.
        for src, payload in ctx.inbox.items():
            if payload and payload[0] == "accept":
                ctx.broadcast("retired")
                ctx.halt((MATCHED, src))
                return
        if not self.live:
            ctx.halt((ISOLATED, None))
            return
        if ctx.round // 2 >= self.phases:
            ctx.halt((UNLUCKY, None))
            return
        if self.side == "L":
            target = ctx.rng.choice(sorted(self.live, key=repr))
            self.proposed_to = target
            ctx.send(target, "propose")

    def _respond_step(self, ctx: NodeContext) -> None:
        if self.side == "L":
            return
        proposers = sorted(
            (src for src, payload in ctx.inbox.items()
             if payload and payload[0] == "propose"),
            key=repr,
        )
        if proposers:
            winner = proposers[-1]  # highest id accepts (Lemma B.13)
            # One message per edge per round: broadcast the retirement,
            # then overwrite the winner's slot with the accept (which
            # implies retirement — the winner halts on receiving it).
            ctx.broadcast("retired")
            ctx.send(winner, "accept")
            ctx.halt((MATCHED, winner))


@dataclass
class ProposalResult:
    matching: Set[frozenset]
    unlucky: Set[Hashable]
    rounds: int
    phases: int


def bipartite_proposal_phases(
    graph: nx.Graph,
    left: Set[Hashable],
    right: Set[Hashable],
    eps: float = 0.25,
    k: Optional[int] = None,
    seed: int = 0,
    network: Optional[SynchronousNetwork] = None,
    phases: Optional[int] = None,
    max_rounds: Optional[int] = None,
    capture_state: bool = False,
    resume: Optional[dict] = None,
    snapshots: bool = True,
    backend: Optional[str] = None,
):
    """Anytime Lemma B.13: one checkpoint per propose/respond phase.

    Opens with ``init`` (or ``resume``) and yields a ``proposal-i``
    checkpoint every two simulator rounds (one proposal phase), with
    the unlucky left nodes so far in ``extras["unlucky"]``; the
    matching is vertex-disjoint at every boundary because pairs retire
    atomically.  Returns the usual :class:`ProposalResult` on
    completion, ``None`` when ``max_rounds`` cuts the protocol
    cooperatively (the simulator stops at the budget; no further
    rounds are executed).  ``capture_state`` / ``resume`` follow the
    :func:`~repro.core.maxis_layers.maxis_layers_phases` protocol.
    ``snapshots=False`` is the fast-drain form the general matcher's
    per-repetition loop uses: no mid-run checkpoints are yielded or
    paid for, and the matching is read off the final outputs instead —
    identical result, zero per-phase bookkeeping.  ``backend`` picks
    the simulator engine when ``network`` is not supplied (results are
    bit-identical either way).
    """

    delta = max_degree(graph)
    if k is None:
        k = optimal_k(delta, eps)
    if phases is None:
        phases = lemma_b13_rounds(delta, eps, k)
    if resume is not None:
        # The payload pins the parameters the original run derived, so
        # a resumed protocol replays the identical phase deadline even
        # if the caller omitted explicit overrides.
        k = resume["k"]
        phases = resume["phases"]
    if network is None:
        network = make_network(graph, seed=seed, backend=backend)
    matching: Set[frozenset] = set()
    unlucky: Set[Hashable] = set()
    sim_state = None
    if resume is not None:
        matching = set(resume["matching"])
        unlucky = set(resume["unlucky"])
        sim_state = resume["sim"]
    yield opening_checkpoint(resume, matching, len(matching),
                             network.metrics,
                             extras={"unlucky": set(unlucky)})
    sides = {v: ("L" if v in left else "R") for v in graph.nodes}
    for u, v in graph.edges:
        if sides[u] == sides[v]:
            raise InvalidInstance(
                f"edge ({u!r}, {v!r}) does not cross the bipartition"
            )
    cap = 2 * phases + 4 if max_rounds is None else max_rounds
    stepper = network.run_stepwise(
        lambda node: ProposalProgram(sides[node], phases),
        max_rounds=cap,
        label="proposal-matching",
        stop_on_limit=max_rounds is not None,
        checkpoint_every=2 if snapshots else None,
        capture_state=capture_state,
        resume_state=sim_state,
    )

    def fold(newly_halted):
        for node, output in newly_halted:
            status, partner = output if output else (UNLUCKY, None)
            if status == MATCHED:
                matching.add(frozenset((node, partner)))
            elif status == UNLUCKY:
                unlucky.add(node)
        return frozenset(matching), len(matching)

    def make_state(rounds, objective, sim):
        return {"rounds": rounds, "k": k, "phases": phases,
                "matching": set(matching), "unlucky": set(unlucky),
                "sim": sim}

    result = yield from stepper_checkpoints(
        stepper, "proposal", fold, make_state, metrics=network.metrics,
        extras=lambda: {"unlucky": set(unlucky)})
    if not snapshots:
        # Fast-drain form: the stepper yielded nothing, so read the
        # outcome off the final outputs (the historical code path).
        fold(result.outputs.items())
    check_matching(graph, [tuple(e) for e in matching])
    if not result.completed:
        return None
    return ProposalResult(
        matching=matching,
        unlucky=unlucky,
        rounds=result.rounds,
        phases=phases,
    )


def general_proposal_phases(
    graph: nx.Graph,
    eps: float = 0.25,
    k: Optional[int] = None,
    seed: int = 0,
    repetitions: Optional[int] = None,
    max_rounds: Optional[int] = None,
    capture_state: bool = False,
    resume: Optional[dict] = None,
    backend: Optional[str] = None,
    bipartite: Optional[Callable] = None,
):
    """Anytime Lemma B.14: one checkpoint per bipartition repetition.

    O(log 1/ε) random-bipartition repetitions: each splits the
    remaining nodes uniformly into left/right, keeps crossing edges,
    and runs the bipartite algorithm; matched nodes leave the pool.

    Yields ``repetition-i`` checkpoints for the initial state and after
    every repetition (``final`` on the last one); the matching is
    vertex-disjoint at every boundary (repetitions only ever add
    disjoint pairs).  With ``max_rounds`` set, stops before launching
    a repetition once the ledger has consumed the budget and returns
    ``None``; otherwise returns the usual ``(matching, rounds,
    ledger)`` triple.

    ``bipartite(sub, left, eps=, k=, seed=)`` runs one Lemma B.13 pass
    on the crossing subgraph and returns ``(matching, unlucky,
    rounds)``.  The default drains :func:`bipartite_proposal_phases`
    on the simulator ``backend`` selects; the MPC model passes
    :func:`repro.mpc.run_bipartite_proposal` bound to its fleet, which
    replays the same per-node RNG streams, so matchings and round
    counts are identical either way.

    ``capture_state=True`` attaches a resume payload (matching,
    surviving node pool, ledger, split-RNG state) to every checkpoint;
    ``resume=`` restores it.  The surviving pool is rebuilt with the
    exact insert-then-discard history of the uncut run so the split
    comprehension's iteration order — and with it the RNG assignment —
    is reproduced verbatim.
    """

    if bipartite is None:
        def bipartite(sub, left, eps, k, seed):
            outcome = drain(bipartite_proposal_phases(
                sub, left, sub.nodes - left, eps=eps, k=k, seed=seed,
                snapshots=False, backend=backend,
            ))
            return outcome.matching, outcome.unlucky, outcome.rounds
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
        ledger.restore(resume["ledger"])
        restore_rng(rng, resume["rng"])
    names = phase_names("repetition")

    def snapshot(next_rep):
        state = None
        if capture_state:
            state = {
                "rounds": ledger.total,
                "repetition": next_rep,
                "repetitions": repetitions,
                "matching": set(matching),
                "remaining": set(remaining),
                "ledger": ledger.state(),
                "rng": rng_state(rng),
            }
        return Checkpoint(phase=next(names), solution=frozenset(matching),
                          objective=len(matching), rounds=ledger.total,
                          final=next_rep >= repetitions,
                          resume_state=state)

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
            rep_matching, _unlucky, rep_rounds = bipartite(
                sub, left, eps=eps, k=k, seed=seed + 13 * (repetition + 1),
            )
            ledger.charge(rep_rounds, "bipartite-proposals")
            matching |= rep_matching
            for e in rep_matching:
                remaining -= set(e)
        yield snapshot(repetition + 1)
    check_matching(graph, [tuple(e) for e in matching])
    return matching, ledger.total, ledger
