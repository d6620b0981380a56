"""Greedy weighted MIS on the MPC runtime.

Message-passing form of :mod:`repro.core.greedy_mis`: every node keeps
a *view* of which neighbors it still believes undecided, joins once it
beats every viewed neighbor, and announces decisions — ``joined`` to
knock neighbors out, ``excluded`` so neighbors shrink their views.
The joined/excluded protocol converges to exactly the central greedy
set (a node only joins after every higher-priority neighbor is known
excluded; a higher-priority neighbor that joins knocks it out first),
so the MPC run has exact objective parity with
``solve(instance, "maxis-greedy")`` — the acceptance check the
``mpc_scaling`` experiment pins per configuration.

Sparsification hooks: ``joined`` notices targeting one recipient are
redundant as a group (one suffices to knock the recipient out — group
key ``("excl", dst)``), and ``excluded`` notices to nodes that already
decided are outcome-neutral (decided nodes ignore their inbox), so
both may be shed under load.  Message weight is the sender's node
weight, so the sparsifier sheds the lowest-weight edges first.  On a
dense graph the one round where every knocked-out node broadcasts its
exclusion is Θ(n²) traffic — entirely droppable — which is the
configuration that passes the sublinearity check *only* because
adaptive sparsification engages.
"""

from __future__ import annotations

from typing import Dict, Hashable, Optional, Set, Tuple

import networkx as nx

from ..core.greedy_mis import greedy_priorities
from ..graphs import check_independent_set, node_weight
from .network import MPCMessage, MPCNetwork

JOINED = "joined"
EXCLUDED = "excluded"


def mpc_greedy_mis(
    graph: nx.Graph,
    network: Optional[MPCNetwork] = None,
    seed: int = 0,
) -> Tuple[frozenset, int, int, MPCNetwork]:
    """Run the peeling protocol over an MPC fleet.

    Returns ``(independent_set, weight, rounds, network)`` where the
    set and weight equal a drained
    :func:`repro.core.greedy_mis.greedy_mis_phases` on the same graph
    (round counts differ: decision news travels one shuffle per hop
    here, while the central peeling sweeps globally).
    """

    if network is None:
        network = MPCNetwork(graph, seed=seed)
    order = sorted(graph.nodes, key=repr)
    priority = greedy_priorities(graph)
    view: Dict[Hashable, Set[Hashable]] = {
        v: set(graph.neighbors(v)) for v in order
    }
    status: Dict[Hashable, Optional[str]] = {v: None for v in order}
    inboxes: Dict[Hashable, Dict[Hashable, Tuple]] = {}
    rounds = 0

    while any(status[v] is None for v in order):
        newly_excluded = []
        for v in order:
            if status[v] is not None:
                continue
            for src, payload in inboxes.get(v, {}).items():
                view[v].discard(src)
                if payload[0] == JOINED and status[v] is None:
                    status[v] = EXCLUDED
                    newly_excluded.append(v)
        newly_joined = []
        for v in order:
            if status[v] is None and all(
                priority[v] > priority[u] for u in view[v]
            ):
                status[v] = JOINED
                newly_joined.append(v)

        messages = []
        for v in newly_joined:
            for u in sorted(view[v], key=repr):
                # One surviving notice per recipient knocks it out, so
                # the group key marks the rest redundant under load.
                messages.append(MPCMessage(
                    v, u, (JOINED,),
                    weight=float(node_weight(graph, v)),
                    group=("excl", u),
                ))
        for v in newly_excluded:
            for u in sorted(view[v], key=repr):
                messages.append(MPCMessage(
                    v, u, (EXCLUDED,),
                    weight=float(node_weight(graph, v)),
                    droppable=status[u] is not None,
                ))
        halted = frozenset(
            v for v in order if status[v] is not None
        )
        inboxes = network.exchange(messages, halted=halted)
        rounds += 1

    chosen = frozenset(v for v in order if status[v] == JOINED)
    check_independent_set(graph, chosen)
    weight = sum(node_weight(graph, v) for v in chosen)
    return chosen, weight, rounds, network


__all__ = ["mpc_greedy_mis"]
