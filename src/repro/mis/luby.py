"""Luby's randomized maximal independent set algorithm [Lub86].

This is the classical MIS black box plugged into Algorithm 2 in the
CONGEST model: each phase, every active node draws a random priority and
joins the MIS when it beats all active neighbors; MIS members and their
neighbors retire.  With high probability the algorithm ends after
O(log n) phases; each phase costs two communication rounds here.

Node outputs: ``"in"`` (joined the MIS) or ``"out"`` (dominated).
"""

from __future__ import annotations

from typing import Hashable, Optional, Set, Tuple

import networkx as nx

from ..congest import NodeContext, NodeProgram, SynchronousNetwork
from ..graphs import check_independent_set

IN_MIS = "in"
OUT_MIS = "out"


class LubyProgram(NodeProgram):
    """One node's behaviour in Luby's MIS.

    Protocol structure (two rounds per phase):

    * even round — process join-announcements from the previous phase,
      then broadcast a fresh random draw;
    * odd round — a node whose draw beats every active neighbor's draw
      (ties broken by node id) joins the MIS, announces, and halts.

    A node that hears an announcement halts with ``"out"``; a node that
    stops hearing a neighbor's draws knows that neighbor has retired.
    """

    def on_start(self, ctx: NodeContext) -> None:
        self._draw = None

    def on_round(self, ctx: NodeContext) -> None:
        if ctx.round % 2 == 0:
            for payload in ctx.inbox.values():
                if payload and payload[0] == "join":
                    ctx.halt(OUT_MIS)
                    return
            # O(log n)-bit priorities keep messages CONGEST-sized; n³
            # values make collisions unlikely and ids break ties anyway.
            self._draw = ctx.rng.randrange(max(2, ctx.n) ** 3)
            ctx.broadcast("draw", self._draw)
        else:
            best = (self._draw, repr(ctx.node))
            for src, payload in ctx.inbox.items():
                if payload and payload[0] == "draw":
                    challenger = (payload[1], repr(src))
                    if challenger > best:
                        best = challenger
            if best == (self._draw, repr(ctx.node)):
                ctx.broadcast("join")
                ctx.halt(IN_MIS)


def luby_mis(
    graph: nx.Graph,
    seed: int = 0,
    network: Optional[SynchronousNetwork] = None,
    max_rounds: int = 10_000,
    label: str = "luby-mis",
) -> Tuple[Set[Hashable], int]:
    """Run Luby's MIS and return ``(mis_nodes, rounds)``.

    When ``network`` is provided the protocol runs on it (accumulating into
    its metrics); otherwise a fresh CONGEST network over ``graph`` is
    created.
    """

    if network is None:
        network = SynchronousNetwork(graph, seed=seed)
    result = network.run(lambda node: LubyProgram(),
                         max_rounds=max_rounds, label=label)
    mis = result.output_set(IN_MIS)
    check_independent_set(graph, mis, require_maximal=True)
    return mis, result.rounds
