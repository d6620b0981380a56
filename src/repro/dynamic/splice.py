"""Per-algorithm state splicers for the compatible-mutation resume path.

A splicer takes a decoded resume ``state`` (the algorithm's raw
checkpoint payload), the *mutated* graph, and the invalidation region
computed by :func:`~repro.dynamic.mutations.influence_region`, and
rewrites the state so the solver can continue on the new graph:
nodes inside the region are reverted to re-runnable form (fresh
program state, stable per-node RNG stream), everything outside keeps
its captured state — and its already-paid rounds — verbatim.

Splicers own their input: they mutate the decoded state in place and
return it.  Registry is keyed by registry algorithm name; algorithms
without a splicer stay under the strict fingerprint rule (a mutated
graph raises :class:`~repro.errors.ResumeMismatch`).
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, Set

import networkx as nx

from ..congest.network import live_entry
from ..core.maxis_layers import NOT_IN_IS, MaxISLayersProgram
from ..errors import ResumeMismatch
from ..graphs.weights import node_weight

SPLICERS: Dict[str, Callable] = {}


def register_splicer(name: str):
    def decorator(fn):
        SPLICERS[name] = fn
        return fn
    return decorator


def get_splicer(name: str):
    return SPLICERS.get(name)


@register_splicer("maxis-layers")
def splice_maxis_layers(state: dict, graph: nx.Graph,
                        region: Set[Hashable]) -> dict:
    """Algorithm 2: revive the region, keep the frozen stack.

    Frozen decisions (halted nodes outside the region) stand.  Region
    nodes are re-examined: one adjacent to a frozen in-set node is
    force-halted ``NotInIS`` (it can never join), every other one
    restarts as a fresh ``active`` node with full weight.  A revived
    node's ``active_neighbors`` excludes frozen candidates — they
    already ran their local-ratio step and must not be re-entered into
    a wait cycle (their eventual join/removed broadcast still reaches
    the revived node, so independence is preserved).
    """

    sim = state.get("sim")
    if sim is None:
        raise ResumeMismatch(
            "payload carries no simulator state to splice (capture "
            "happens on budgeted runs only)"
        )
    local = {v for v in region if v in graph}
    halted = sim["halted"]
    live = sim["live"]
    chosen = set(state["chosen"])
    frozen_chosen = {v for v in chosen if v not in local}
    for v in local:
        halted.pop(v, None)
        live.pop(v, None)
    for v in list(live):
        if v not in graph:
            raise ResumeMismatch(
                f"node {v!r} left the graph outside the declared "
                "mutation batch"
            )
    # The protocol's 3-round phases assume revived nodes start at a
    # phase boundary (info broadcast).  Mid-phase captures can only be
    # spliced when no third-party live state would be shifted.
    round_ = sim["round"]
    if round_ % 3:
        if live:
            raise ResumeMismatch(
                "cannot splice a mid-phase capture while other nodes "
                "are still live (truncate at a phase boundary)"
            )
        round_ += 3 - round_ % 3
    forced, revived = set(), set()
    for v in local:
        if any(u in frozen_chosen for u in graph[v]):
            forced.add(v)
        else:
            revived.add(v)
    active = MaxISLayersProgram.ACTIVE
    for v in forced:
        halted[v] = NOT_IN_IS
        # Stand in for the "removed" broadcast a live node would have
        # sent: nobody may keep waiting on a silently-halted node.
        for u in graph[v]:
            entry = live.get(u)
            if entry is not None:
                prog = entry["program"]
                prog["active_neighbors"].discard(v)
                prog["wait_set"].discard(v)
                prog["neighbor_layers"].pop(v, None)
    for v in revived:
        neighbors = {
            u for u in graph[v]
            if u in revived
            or (u in live and live[u]["program"]["status"] == active)
        }
        live[v] = live_entry(None, {  # fresh stable per-node stream
            "weight": node_weight(graph, v),
            "status": active,
            "active_neighbors": neighbors,
            "wait_set": set(),
            "neighbor_layers": {},
            "bid": None,
            "eligible": False,
        })
    sim["in_flight"] = [
        message for message in sim["in_flight"]
        if message[0] not in local and message[1] not in local
    ]
    sim["round"] = round_
    state["rounds"] = max(state["rounds"], round_)
    state["chosen"] = frozen_chosen
    state["weight"] = sum(node_weight(graph, v) for v in frozen_chosen)
    return state


@register_splicer("matching-proposal")
def splice_matching_proposal(state: dict, graph: nx.Graph,
                             region: Set[Hashable]) -> dict:
    """Lemma B.14: unmatch the region, re-run repetitions on the pool.

    Matched edges with an endpoint in the region (or no longer present
    in the graph) are dissolved; both endpoints — plus their unmatched
    neighbors, so a released node can re-pair locally — form the new
    surviving pool, and the repetition counter rewinds to zero so the
    full bipartition schedule runs again over just that pool.  Rounds,
    ledger and the split-RNG stream continue where they left off.
    """

    local = {v for v in region if v in graph}
    matching = set(state["matching"])
    kept, released = set(), set()
    for edge in matching:
        u, v = tuple(edge)
        if u in local or v in local or not graph.has_edge(u, v):
            released.update((u, v))
        else:
            kept.add(edge)
    matched = {v for edge in kept for v in edge}
    pool = {v for v in (local | released) if v in graph}
    pool |= {u for v in pool for u in graph[v] if u not in matched}
    pool -= matched
    state["matching"] = kept
    state["remaining"] = pool
    state["repetition"] = 0
    return state


__all__ = ["SPLICERS", "get_splicer", "register_splicer",
           "splice_maxis_layers", "splice_matching_proposal"]
