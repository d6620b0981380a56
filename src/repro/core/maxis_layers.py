"""Algorithm 2 — distributed Δ-approximation for weighted MaxIS.

The algorithm layers the nodes by weight (layer ``i`` holds nodes with
``2^{i-1} < w <= 2^i``) and repeatedly selects an independent set among
*locally top-layer* nodes — nodes with no higher-layer active neighbor —
using randomized bidding (the Luby-style MIS black box of Theorem 2.3).
Selected nodes become *candidates*: they subtract their weight from their
closed neighborhood (their own weight becomes 0, Section 2.1's closed-
neighborhood local-ratio step) and later, in the addition stage, join the
independent set exactly when every neighbor they were waiting on has
decided *not* to join (the stack discipline of Algorithm 1, realized by
message passing).

Round structure — three rounds per selection iteration:

* phase A (``round % 3 == 0``): digest ``reduce``/``removed``/``join``
  messages, retire if the weight dropped to zero or below, broadcast the
  fresh ``(weight, layer)``;
* phase B: nodes with no higher-layer active neighbor broadcast a random
  bid (these are exactly the nodes the paper lets run the MIS — locally
  top-layer nodes never wait);
* phase C: a bidder that beats every same-layer bid in its neighborhood
  is selected (selected nodes are independent: same-layer ties are broken
  strictly and cross-layer adjacent winners are impossible because the
  lower one would not have been eligible); it sends ``reduce`` to its
  believed-active neighbors and becomes a candidate.

Candidates wait for every neighbor that was active at their candidacy to
announce a final decision; a ``join`` from a *later* candidate knocks
them out (they were popped later in the stack), an empty wait set lets
them join.  The paper's Theorem 2.3 accounting — O(MIS(G) · log W)
rounds — shows up as the measured round count growing like
log n · log W with the Luby-style selection.

Outputs per node: ``"InIS"`` / ``"NotInIS"``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Set

import networkx as nx

from ..congest import (
    NodeContext,
    NodeProgram,
    SynchronousNetwork,
    make_network,
)
from ..errors import InvalidInstance
from ..graphs import check_independent_set, max_node_weight
from ..utils import geometric_layers
from .stepwise import opening_checkpoint, stepper_checkpoints

IN_IS = "InIS"
NOT_IN_IS = "NotInIS"


@dataclass
class LayerTrace:
    """Instrumentation for the Lemma A.1 figure.

    ``occupancy[t]`` maps a phase-A round index to the set of layers that
    still contain active nodes — the quantity that loses its topmost
    member after every completed MIS selection round on the top layer.
    """

    occupancy: Dict[int, Set[int]] = field(default_factory=dict)

    def record(self, round_index: int, layer: int) -> None:
        self.occupancy.setdefault(round_index, set()).add(layer)

    def top_layer_series(self) -> List[int]:
        """The topmost occupied layer per recorded round, in round order."""

        return [max(layers) for _, layers in sorted(self.occupancy.items())]


class MaxISLayersProgram(NodeProgram):
    """One node of Algorithm 2 (see module docstring for the protocol)."""

    ACTIVE = "active"
    CANDIDATE = "candidate"
    TAGS = frozenset({"removed", "join", "info", "bid", "reduce"})

    def __init__(self, weight: int, trace: Optional[LayerTrace] = None):
        if weight <= 0 or int(weight) != weight:
            raise InvalidInstance(
                f"Algorithm 2 needs positive integer weights, got {weight}"
            )
        self.weight = int(weight)
        self.trace = trace

    def on_start(self, ctx: NodeContext) -> None:
        self.status = self.ACTIVE
        self.active_neighbors: Set[Hashable] = set(ctx.neighbors)
        self.wait_set: Set[Hashable] = set()
        self.neighbor_layers: Dict[Hashable, int] = {}
        self.bid: Optional[float] = None
        self.eligible = False

    # -- checkpoint support (resume protocol) --------------------------
    def export_state(self) -> dict:
        return {
            "weight": self.weight,
            "status": self.status,
            "active_neighbors": set(self.active_neighbors),
            "wait_set": set(self.wait_set),
            "neighbor_layers": dict(self.neighbor_layers),
            "bid": self.bid,
            "eligible": self.eligible,
        }

    def restore_state(self, state: dict) -> None:
        self.weight = state["weight"]
        self.status = state["status"]
        self.active_neighbors = set(state["active_neighbors"])
        self.wait_set = set(state["wait_set"])
        self.neighbor_layers = dict(state["neighbor_layers"])
        self.bid = state["bid"]
        self.eligible = state["eligible"]

    # ------------------------------------------------------------------
    def on_round(self, ctx: NodeContext) -> None:
        if self._process_inbox(ctx):
            return
        if self._maybe_transition(ctx):
            return
        phase = ctx.round % 3
        if self.status == self.ACTIVE:
            if phase == 0:
                self._phase_broadcast(ctx)
            elif phase == 1:
                self._phase_bid(ctx)
            else:
                self._phase_resolve(ctx)

    # ------------------------------------------------------------------
    def _process_inbox(self, ctx: NodeContext) -> bool:
        """Apply status messages; return True if this node halted."""

        for src, payload in ctx.inbox.items():
            kind = payload[0] if payload else None
            if kind == "reduce":
                # Only active nodes are ever sent a reduce (candidates were
                # dropped from the sender's neighborhood at their own
                # candidacy), so the weight update below is safe.
                self.weight -= payload[1]
                self.active_neighbors.discard(src)
            elif kind == "removed":
                self.active_neighbors.discard(src)
                self.wait_set.discard(src)
            elif kind == "join":
                # A neighbor entered the independent set; we cannot.
                ctx.broadcast("removed")
                ctx.halt(NOT_IN_IS)
                return True
        return False

    def _maybe_transition(self, ctx: NodeContext) -> bool:
        if self.status == self.ACTIVE and self.weight <= 0:
            ctx.broadcast("removed")
            ctx.halt(NOT_IN_IS)
            return True
        if self.status == self.CANDIDATE and not self.wait_set:
            ctx.broadcast("join")
            ctx.halt(IN_IS)
            return True
        return False

    # ------------------------------------------------------------------
    @property
    def layer(self) -> int:
        return geometric_layers(self.weight)

    def _phase_broadcast(self, ctx: NodeContext) -> None:
        if self.trace is not None:
            self.trace.record(ctx.round, self.layer)
        ctx.broadcast("info", self.weight, self.layer)

    def _phase_bid(self, ctx: NodeContext) -> None:
        self.neighbor_layers = {
            src: payload[2]
            for src, payload in ctx.inbox.items()
            if payload and payload[0] == "info"
        }
        self.eligible = all(
            layer <= self.layer for layer in self.neighbor_layers.values()
        )
        self.bid = None
        if self.eligible:
            # O(log n)-bit random priority (CONGEST-sized message).
            self.bid = ctx.rng.randrange(max(2, ctx.n) ** 3)
            ctx.broadcast("bid", self.bid)

    def _phase_resolve(self, ctx: NodeContext) -> None:
        if self.bid is None:
            return
        mine = (self.bid, repr(ctx.node))
        for src, payload in ctx.inbox.items():
            if not payload or payload[0] != "bid":
                continue
            if self.neighbor_layers.get(src) != self.layer:
                continue
            if (payload[1], repr(src)) > mine:
                return  # beaten by a same-layer neighbor
        # Selected: perform the closed-neighborhood local-ratio step.
        for u in self.active_neighbors:
            ctx.send(u, "reduce", self.weight)
        self.wait_set = set(self.active_neighbors)
        self.weight = 0
        self.status = self.CANDIDATE


@dataclass
class MaxISResult:
    """Outcome of a distributed MaxIS execution."""

    independent_set: Set[Hashable]
    rounds: int
    weight: int
    trace: Optional[LayerTrace] = None


def default_round_budget(graph: nx.Graph) -> int:
    """Theorem 2.3's budget with generous constants: O(MIS(G) · log W)
    selection rounds plus the addition-stage cascade."""

    import math

    n = max(2, graph.number_of_nodes())
    w = max(2, max_node_weight(graph))
    return 600 * (math.ceil(math.log2(n)) + 2) * (
        math.ceil(math.log2(w)) + 2
    )


def maxis_layers_phases(
    graph: nx.Graph,
    seed: int = 0,
    network: Optional[SynchronousNetwork] = None,
    max_rounds: Optional[int] = None,
    trace: Optional[LayerTrace] = None,
    capture_state: bool = False,
    resume: Optional[dict] = None,
):
    """Anytime Algorithm 2: one checkpoint per selection phase.

    A phase generator (:mod:`repro.core.stepwise`) that drives the
    protocol through
    :meth:`~repro.congest.SynchronousNetwork.run_stepwise`: it opens
    with an ``init`` (or ``resume``) checkpoint and yields
    ``selection-i`` at every selection-phase boundary (one phase = 3
    simulator rounds; ``final`` marks the run's last snapshot).  The
    solution is the set of nodes that have joined the independent set
    so far — independent at *every* prefix of the execution, because
    the stack discipline only lets a node join once every undecided
    neighbor has declined — so each checkpoint is a valid partial
    solution in its own right (the "expected value by round T" object
    of the MaxIS analysis); its objective is the set's weight.

    Returns (as ``StopIteration.value``) the usual :class:`MaxISResult`
    when the protocol completes, or ``None`` when the ``max_rounds``
    budget interrupts it cooperatively; the last yielded checkpoint
    then holds the best partial solution, and no rounds beyond the
    budget are executed.

    With ``capture_state=True`` the final checkpoint's
    ``resume_state`` holds a resume payload (the simulator execution
    state plus the partial solution); passing it back as ``resume=``
    continues the protocol from that boundary — same messages, same
    randomness, continued round/metric accounting — as if the budget
    had never cut it.  ``max_rounds`` stays cumulative across the hops.
    """

    if network is None:
        network = make_network(graph, seed=seed)
    if max_rounds is None:
        max_rounds = default_round_budget(graph)
    # One pass over the node data instead of a node_weight() call per
    # factory invocation — at n=10^5 the per-call attribute chasing is
    # measurable against the vectorized backend.
    weights = dict(graph.nodes(data="weight", default=1))
    chosen: Set[Hashable] = set()
    weight = 0
    sim_state = None
    if resume is not None:
        chosen = set(resume["chosen"])
        weight = resume["weight"]
        sim_state = resume["sim"]
    yield opening_checkpoint(resume, chosen, weight, network.metrics)
    stepper = network.run_stepwise(
        lambda node: MaxISLayersProgram(weights[node], trace),
        max_rounds=max_rounds,
        label="maxis-layers",
        stop_on_limit=True,
        checkpoint_every=3,
        capture_state=capture_state,
        resume_state=sim_state,
        # The array engine's parameter table, in the network's order.
        table={"weight": [weights[v] for v in network.graph],
               "trace": trace},
    )

    def fold(newly_halted):
        nonlocal weight
        for node, output in newly_halted:
            if output == IN_IS:
                chosen.add(node)
                weight += weights[node]
        return frozenset(chosen), weight

    def make_state(rounds, objective, sim):
        return {"rounds": rounds, "chosen": set(chosen),
                "weight": objective, "sim": sim}

    result = yield from stepper_checkpoints(
        stepper, "selection", fold, make_state, metrics=network.metrics)
    check_independent_set(graph, chosen)
    if not result.completed:
        return None
    return MaxISResult(independent_set=set(chosen), rounds=result.rounds,
                       weight=weight, trace=trace)

