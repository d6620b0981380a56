"""Greedy weighted MIS on the MPC runtime.

Message-passing form of :mod:`repro.core.greedy_mis`, run through the
simulator's round loop with the fleet's shuffle as its delivery step.
Every node keeps a *view* of which neighbors it still believes
undecided, joins once it beats every viewed neighbor, then announces
its decision and halts — ``joined`` to knock neighbors out,
``excluded`` so neighbors shrink their views.  This converges to
exactly the central greedy set (a node only joins after every
higher-priority neighbor is known excluded), so the MPC run has exact
objective parity with ``solve(instance, "maxis-greedy")``.

Sparsification hooks: ``joined`` notices to one recipient are
redundant as a group (one suffices — group key ``("excl", dst)``), and
a notice to a node that already halted is never read, so both may be
shed under load, lowest sender weight first.  On a dense graph the
round where every knocked-out node broadcasts its exclusion is Θ(n²)
traffic — entirely droppable — and passes the sublinearity check
*only* because adaptive sparsification engages.
"""

from __future__ import annotations

from typing import Dict, Hashable, Optional, Tuple

import networkx as nx

from ..congest.node import NodeContext, NodeProgram
from ..core.greedy_mis import greedy_priorities
from ..graphs import check_independent_set, node_weight
from .network import MPCNetwork, _FleetNetwork, _ShuffledEngine

JOINED = "joined"
EXCLUDED = "excluded"


class PeelingProgram(NodeProgram):
    """One node of the joined/excluded protocol; outputs membership."""

    def __init__(self, priority: Dict[Hashable, Tuple[int, int]]):
        self.priority = priority

    def on_start(self, ctx: NodeContext) -> None:
        self.view = set(ctx.neighbors)

    def on_round(self, ctx: NodeContext) -> None:
        view = self.view
        view.difference_update(ctx.inbox)
        knocked_out = (JOINED,) in ctx.inbox.values()
        priority = self.priority
        mine = priority[ctx.node]
        joined = not knocked_out and all(mine > priority[u] for u in view)
        if knocked_out or joined:
            tag = JOINED if joined else EXCLUDED
            for u in ctx.neighbors:
                if u in view:
                    ctx.send(u, tag)
            ctx.halt(joined)


class _PeelingEngine(_ShuffledEngine):
    """Marks each notice with its sender's weight, and each ``joined``
    notice with its recipient's redundancy group."""

    def __init__(self, net: _FleetNetwork, program_factory):
        super().__init__(net, program_factory)
        graph = net.graph
        self.weights = {v: float(node_weight(graph, v)) for v in self.nodes}

    def mark(self, msg: tuple) -> Tuple[float, bool, Optional[tuple]]:
        src, dst, payload = msg
        group = ("excl", dst) if payload[0] == JOINED else None
        return self.weights[src], self._contexts[dst]._halted, group


class _PeelingNetwork(_FleetNetwork):
    ENGINE = _PeelingEngine


def mpc_greedy_mis(graph: nx.Graph,
                   network: MPCNetwork) -> Tuple[frozenset, int, int]:
    """Run the peeling protocol over the MPC fleet ``network``.

    Returns ``(independent_set, weight, rounds)`` where the set and
    weight equal a drained
    :func:`repro.core.greedy_mis.greedy_mis_phases` on the same graph
    (round counts differ: decision news travels one shuffle per hop
    here, while the central peeling sweeps globally).
    """

    priority = greedy_priorities(graph)
    # Every round decides the highest-priority undecided node.
    result = _PeelingNetwork(graph, network, network.seed).run(
        lambda v: PeelingProgram(priority),
        max_rounds=graph.number_of_nodes() + 1,
    )
    chosen = frozenset(v for v in sorted(graph.nodes, key=repr)
                       if result.outputs[v])
    check_independent_set(graph, chosen)
    weight = sum(node_weight(graph, v) for v in chosen)
    return chosen, weight, result.rounds


__all__ = ["mpc_greedy_mis"]
