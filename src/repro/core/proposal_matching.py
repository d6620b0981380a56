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

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Hashable, Optional, Set

import networkx as nx

try:  # numpy is optional: without it every repetition takes the
    import numpy as np  # networkx path on the object engine.
except ImportError:  # pragma: no cover - the image bakes numpy in
    np = None

from ..congest import (
    ARRAY_BACKEND,
    ArrayNetwork,
    NodeContext,
    NodeProgram,
    RoundLedger,
    SynchronousNetwork,
    make_network,
    resolve_backend,
)
from ..congest.array_network import graph_csr
from ..errors import AlgorithmContractViolation, InvalidInstance
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

    TAGS = frozenset({"retired", "accept", "propose"})

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


def _absorb(outputs, matching: Set[frozenset],
            unlucky: Set[Hashable]) -> None:
    """Fold halted nodes' ``(node, output)`` pairs into the matching
    and the unlucky set."""

    for node, output in outputs:
        status, partner = output if output else (UNLUCKY, None)
        if status == MATCHED:
            matching.add(frozenset((node, partner)))
        elif status == UNLUCKY:
            unlucky.add(node)


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

    if network is None:
        network = make_network(graph, seed=seed, backend=backend)
    sides = {v: ("L" if v in left else "R") for v in graph.nodes}
    for u, v in graph.edges:
        if sides[u] == sides[v]:
            raise InvalidInstance(
                f"edge ({u!r}, {v!r}) does not cross the bipartition"
            )
    matching, result = yield from _b13_run(
        network, [sides[v] for v in network.graph], sides.__getitem__,
        max_degree(graph), eps, k, phases, max_rounds=max_rounds,
        capture_state=capture_state, resume=resume, snapshots=snapshots)
    check_matching(graph, [tuple(e) for e in matching])
    return result


def _b13_run(network, sides, side_of, delta, eps, k, phases,
             max_rounds=None, capture_state=False, resume=None,
             snapshots=True):
    """The Lemma B.13 protocol on ``network``: the phase generator both
    :func:`bipartite_proposal_phases` and the masked Lemma B.14
    repetitions drive.

    ``sides`` holds every node's side in the network's node order (the
    array engine's table column), ``side_of`` maps a node to it (the
    object engine's factory), and ``delta`` derives K and the phase
    budget the caller did not fix.  Returns ``(matching, result)``:
    the matching folded so far, which the caller checks against its
    graph, and the :class:`ProposalResult` (``None`` on a budget cut).
    """

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
    cap = 2 * phases + 4 if max_rounds is None else max_rounds
    stepper = network.run_stepwise(
        lambda node: ProposalProgram(side_of(node), phases),
        max_rounds=cap,
        label="proposal-matching",
        stop_on_limit=max_rounds is not None,
        checkpoint_every=2 if snapshots else None,
        capture_state=capture_state,
        resume_state=sim_state,
        table={"side": sides, "phases": phases},
    )

    def fold(newly_halted):
        _absorb(newly_halted, matching, unlucky)
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
    if not result.completed:
        return matching, None
    return matching, ProposalResult(
        matching=matching,
        unlucky=unlucky,
        rounds=result.rounds,
        phases=phases,
    )


def crossing_subgraph(graph: nx.Graph, remaining: Set[Hashable],
                      left: Set[Hashable],
                      right: Set[Hashable]) -> nx.Graph:
    """One Lemma B.14 repetition's graph: every remaining node, and the
    edges that cross the ``left``/``right`` split."""

    sub = nx.Graph()
    sub.add_nodes_from(remaining)
    sub.add_edges_from(
        (u, v) for u, v in graph.edges
        if (u in left and v in right) or (u in right and v in left)
    )
    return sub


def _maskable_csr(graph: nx.Graph, backend: Optional[str]):
    """The parent CSR the repetitions can be sliced from, or ``None``
    when they take the networkx path (object engine, no numpy, or node
    reprs that tie, which :meth:`GraphCSR.restrict` cannot order)."""

    if resolve_backend(backend) != ARRAY_BACKEND or np is None:
        return None
    if graph.number_of_nodes() == 0:
        return None
    csr = graph_csr(graph)
    return csr if csr.unique_reprs else None


def crossing_csr(parent, remaining: Set[Hashable], left: Set[Hashable]):
    """:func:`crossing_subgraph` as a mask of the parent graph's CSR.

    Returns ``(sub, on_left)`` — the sub-CSR, equal to a fresh compile
    of the sub-graph (same nodes in ``remaining``'s order, rank-sorted
    rows), and each of its nodes' side — or ``None`` when no edge
    crosses the split.
    """

    count = len(remaining)
    members = np.fromiter(map(parent.index.__getitem__, remaining),
                          dtype=np.int64, count=count)
    on_left = np.fromiter((v in left for v in remaining), dtype=bool,
                          count=count)
    alive = np.zeros(parent.n, dtype=bool)
    alive[members] = True
    side = np.zeros(parent.n, dtype=bool)
    side[members] = on_left
    rows, cols = parent.rows, parent.indices
    keep = alive[rows] & alive[cols] & (side[rows] != side[cols])
    if not keep.any():
        return None
    return parent.restrict(members, keep), on_left


def _masked_repetition(graph, parent, remaining, left, right, eps, k,
                       seed):
    """One Lemma B.13 pass of Lemma B.14 on a sub-CSR of ``parent``.

    Bit for bit what :func:`bipartite_proposal_phases` does on
    :func:`crossing_subgraph` (``snapshots=False``): the sub-CSR has the
    same nodes in the same order, rank-sorted rows, and the network the
    same seed, bandwidth and protocol index.  The networkx sub-graph is
    built only if the run falls back to the object engine.  Returns
    ``(matching, unlucky, rounds)``, or ``None`` when no edge crosses
    the split.
    """

    sliced = crossing_csr(parent, remaining, left)
    if sliced is None:
        return None
    sub, on_left = sliced
    if (on_left[sub.rows] == on_left[sub.indices]).any():
        raise InvalidInstance("a sliced edge does not cross the bipartition")
    network = ArrayNetwork.over_csr(
        sub, lambda: crossing_subgraph(graph, remaining, left, right),
        seed=seed)
    matching, result = drain(_b13_run(
        network, np.where(on_left, "L", "R"),
        lambda node: "L" if node in left else "R",
        int(sub.degree.max()), eps, k, None, snapshots=False))
    _check_crossing_matching(sub, on_left, matching)
    return matching, result.unlucky, result.rounds


def _check_crossing_matching(sub, on_left, matching) -> None:
    """:func:`~repro.graphs.check_matching` of one repetition's pairs
    on its sub-CSR, vectorised, without building the sub-graph: every
    pair is an edge of ``sub``, no two pairs share an endpoint, and
    every pair crosses the split.  The caller's final check against
    the graph itself stays, since a cached CSR can be stale."""

    if not matching:
        return
    pairs = list(matching)
    ends = np.fromiter(
        map(sub.index.get, itertools.chain.from_iterable(pairs),
            itertools.repeat(-1)),
        dtype=np.int64, count=2 * len(pairs)).reshape(-1, 2)
    u, v = ends[:, 0], ends[:, 1]
    known = (u >= 0) & (v >= 0)
    # Rows are rank-sorted, so (row, column rank) keys ascend over the
    # CSR positions and one binary search finds each pair's edge.
    n = sub.n
    keys = sub.rows * n + sub.rank[sub.indices]
    wanted = np.where(known, u * n + sub.rank[v], -1)
    found = keys[np.minimum(np.searchsorted(keys, wanted), sub.m2 - 1)]
    bad = np.flatnonzero(~known | (found != wanted))
    if bad.size:
        a, b = pairs[int(bad[0])]
        raise AlgorithmContractViolation(
            f"matching contains non-edge ({a!r}, {b!r})")
    uses = np.bincount(ends.ravel(), minlength=n)
    bad = np.flatnonzero((uses[u] > 1) | (uses[v] > 1))
    if bad.size:
        a, b = pairs[int(bad[0])]
        raise AlgorithmContractViolation(
            f"matching edges share an endpoint at ({a!r}, {b!r})")
    if (on_left[u] == on_left[v]).any():
        raise AlgorithmContractViolation(
            "a matched pair is not a crossing edge")


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
    runs the same :class:`ProposalProgram` through the same round loop
    with the fleet's shuffle as the delivery step, so matchings and
    round counts are identical either way.

    ``capture_state=True`` attaches a resume payload (matching,
    surviving node pool, ledger, split-RNG state) to every checkpoint;
    ``resume=`` restores it.  The surviving pool is rebuilt with the
    exact insert-then-discard history of the uncut run so the split
    comprehension's iteration order — and with it the RNG assignment —
    is reproduced verbatim.
    """

    # On the array engine each repetition runs on a mask of the parent
    # graph's cached CSR instead of a fresh networkx sub-graph.
    parent = _maskable_csr(graph, backend) if bipartite is None else None
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
        ledger.charge(1, "bipartition")
        rep_seed = seed + 13 * (repetition + 1)
        if parent is not None:
            outcome = _masked_repetition(graph, parent, remaining, left,
                                         right, eps, k, rep_seed)
        else:
            sub = crossing_subgraph(graph, remaining, left, right)
            outcome = None
            if sub.number_of_edges() > 0:
                outcome = bipartite(sub, left, eps=eps, k=k, seed=rep_seed)
        if outcome is not None:
            rep_matching, _unlucky, rep_rounds = outcome
            ledger.charge(rep_rounds, "bipartite-proposals")
            matching |= rep_matching
            for e in rep_matching:
                remaining -= set(e)
        yield snapshot(repetition + 1)
    check_matching(graph, [tuple(e) for e in matching])
    return matching, ledger.total, ledger
