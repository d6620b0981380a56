"""Algorithm 3 — deterministic coloring-based Δ-approximation for MaxIS.

Instead of weight layers, nodes are prioritized by a proper (Δ+1)-coloring:
a node whose color is a *local maximum* among its still-active neighbors
performs the closed-neighborhood local-ratio step (sends ``reduce`` and
becomes a candidate).  Because the coloring is proper, two adjacent nodes
can never both be local maxima, so the reducing set is always independent
— this is the whole trick that makes the selection deterministic.

After one sweep the top color class is entirely candidates or removed;
after at most Δ+1 sweeps the removal stage is done (O(Δ) rounds).  The
addition stage is the same candidate/wait-set stack discipline as
Algorithm 2.

The (Δ+1)-coloring itself comes from :mod:`repro.mis.coloring`; the paper
charges O(Δ + log* n) rounds for it citing [BEK14, Bar15] — see DESIGN.md
§4 for the substitution we make there.  The result reports the coloring
rounds (measured and accounted) separately from the local-ratio rounds.

Everything in this algorithm is deterministic: running it twice yields
bit-identical outputs, which the test suite asserts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, Optional, Set

import networkx as nx

from ..congest import (
    NodeContext,
    NodeProgram,
    SynchronousNetwork,
    make_network,
)
from ..errors import InvalidInstance
from ..mis.coloring import ColoringResult, delta_plus_one_coloring
from .stepwise import opening_checkpoint, stepper_checkpoints

IN_IS = "InIS"
NOT_IN_IS = "NotInIS"


class MaxISColoringProgram(NodeProgram):
    """One node of Algorithm 3.

    One round per iteration: digest ``reduce``/``removed``/``join``,
    retire on non-positive weight, then — if the node's color beats every
    believed-active neighbor's color — perform the local-ratio step.
    Color comparisons need no fresh messages because colors are static
    and the believed-active set only ever shrinks (stale beliefs merely
    delay eligibility by one round, never break independence).
    """

    ACTIVE = "active"
    CANDIDATE = "candidate"
    TAGS = frozenset({"removed", "join", "reduce"})

    def __init__(self, weight: int, color: int,
                 neighbor_colors: Dict[Hashable, int]):
        if weight <= 0:
            raise InvalidInstance(
                f"Algorithm 3 needs positive weights, got {weight}"
            )
        self.weight = int(weight)
        self.color = color
        self.neighbor_colors = dict(neighbor_colors)

    def on_start(self, ctx: NodeContext) -> None:
        self.status = self.ACTIVE
        self.active_neighbors: Set[Hashable] = set(ctx.neighbors)
        self.wait_set: Set[Hashable] = set()
        self._act(ctx)

    # -- checkpoint support (resume protocol) --------------------------
    def export_state(self) -> dict:
        return {
            "weight": self.weight,
            "status": self.status,
            "active_neighbors": set(self.active_neighbors),
            "wait_set": set(self.wait_set),
        }

    def restore_state(self, state: dict) -> None:
        self.weight = state["weight"]
        self.status = state["status"]
        self.active_neighbors = set(state["active_neighbors"])
        self.wait_set = set(state["wait_set"])

    def on_round(self, ctx: NodeContext) -> None:
        for src, payload in ctx.inbox.items():
            kind = payload[0] if payload else None
            if kind == "reduce":
                self.weight -= payload[1]
                self.active_neighbors.discard(src)
            elif kind == "removed":
                self.active_neighbors.discard(src)
                self.wait_set.discard(src)
            elif kind == "join":
                ctx.broadcast("removed")
                ctx.halt(NOT_IN_IS)
                return
        self._act(ctx)

    def _act(self, ctx: NodeContext) -> None:
        if self.status == self.ACTIVE:
            if self.weight <= 0:
                ctx.broadcast("removed")
                ctx.halt(NOT_IN_IS)
                return
            if all(self.color > self.neighbor_colors[u]
                   for u in self.active_neighbors):
                for u in self.active_neighbors:
                    ctx.send(u, "reduce", self.weight)
                self.wait_set = set(self.active_neighbors)
                self.weight = 0
                self.status = self.CANDIDATE
        if self.status == self.CANDIDATE and not self.wait_set:
            ctx.broadcast("join")
            ctx.halt(IN_IS)


@dataclass
class MaxISColoringResult:
    """Outcome of Algorithm 3 plus coloring round accounting."""

    independent_set: Set[Hashable]
    weight: int
    local_ratio_rounds: int
    coloring: ColoringResult

    @property
    def measured_rounds(self) -> int:
        """Local-ratio rounds plus the measured coloring pipeline rounds."""

        return self.local_ratio_rounds + self.coloring.measured_rounds

    @property
    def accounted_rounds(self) -> int:
        """Local-ratio rounds plus the paper's O(Δ + log* n) coloring."""

        return self.local_ratio_rounds + self.coloring.accounted_bek14_rounds


def maxis_coloring_phases(
    graph: nx.Graph,
    network: Optional[SynchronousNetwork] = None,
    coloring: Optional[ColoringResult] = None,
    max_rounds: Optional[int] = None,
    capture_state: bool = False,
    resume: Optional[dict] = None,
):
    """Anytime Algorithm 3: one checkpoint per local-ratio sweep round.

    Opens with ``init`` (or ``resume``) and yields ``sweep-i``
    checkpoints whose ``rounds`` is the paper-*accounted* cumulative
    count — the O(Δ + log* n) coloring charge
    (``accounted_bek14_rounds``) plus the local-ratio rounds simulated
    so far — matching what :class:`MaxISColoringResult.accounted_rounds`
    reports at the end.  The chosen set is independent at every
    boundary (same stack discipline as Algorithm 2), so every
    checkpoint is a valid partial solution.

    ``max_rounds`` budgets the accounted count: a budget below the
    coloring charge stops before simulating anything (the generator
    returns ``None`` right after its ``init`` checkpoint), and
    otherwise the local-ratio simulation is capped at the remainder.
    Returns the usual :class:`MaxISColoringResult` on completion,
    ``None`` on a budget cut.  ``capture_state`` / ``resume`` follow
    the :func:`~repro.core.maxis_layers.maxis_layers_phases` protocol:
    the final checkpoint's state resumes the run bit-for-bit (the
    coloring itself is deterministic and recomputed, not serialized).
    """

    if coloring is None:
        coloring = delta_plus_one_coloring(graph)
    colors = coloring.colors
    if network is None:
        network = make_network(graph, seed=0)
    base = coloring.accounted_bek14_rounds
    chosen: Set[Hashable] = set()
    weight = 0
    sim_state = None
    if resume is not None:
        chosen = set(resume["chosen"])
        weight = resume["weight"]
        sim_state = resume["sim"]
    yield opening_checkpoint(resume, chosen, weight, network.metrics)
    if max_rounds is None:
        sim_cap = 20 * (coloring.palette + 2) + 4 * graph.number_of_nodes()
    else:
        if max_rounds < base and resume is None:
            # The budget cannot even pay for the coloring black box:
            # stop cooperatively before simulating a single round.
            return None
        sim_cap = max(0, max_rounds - base)

    weights = dict(graph.nodes(data="weight", default=1))

    def factory(node: Hashable) -> MaxISColoringProgram:
        neighbor_colors = {u: colors[u] for u in graph.neighbors(node)}
        return MaxISColoringProgram(
            weight=weights[node],
            color=colors[node],
            neighbor_colors=neighbor_colors,
        )

    # The array engine's parameter table, in the network's node order.
    nodes = network.graph
    stepper = network.run_stepwise(
        factory,
        max_rounds=sim_cap,
        label="maxis-coloring",
        stop_on_limit=True,
        checkpoint_every=1,
        capture_state=capture_state,
        resume_state=sim_state,
        table={"weight": [weights[v] for v in nodes],
               "color": [colors[v] for v in nodes]},
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
        stepper, "sweep", fold, make_state, metrics=network.metrics,
        rounds_offset=base)
    if not result.completed:
        return None
    return MaxISColoringResult(
        independent_set=set(chosen),
        weight=weight,
        local_ratio_rounds=result.rounds,
        coloring=coloring,
    )

