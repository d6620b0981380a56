"""Theorem B.4 — (1+ε)-approximate maximum cardinality matching, LOCAL.

The Hopcroft–Karp loop: for ℓ = 1, 3, …, 2⌈1/ε⌉+1, find a nearly-maximal
set of vertex-disjoint augmenting paths of length ℓ among *active* nodes
and flip them.  The nearly-maximal set comes from the rank-(ℓ+1)
hypergraph matching of Appendix B.2 (each path = one hyperedge over its
nodes), whose good-round deactivation guarantees that each node is
deactivated with probability ≤ δ per phase — the strong per-node
guarantee that makes discarding the stragglers affordable (the naive
per-path guarantee cannot be union-bounded over the up-to-Δ^ℓ paths
through a node; that is the whole point of Section B.2).

After the loop, no augmenting path of length ≤ 2⌈1/ε⌉+1 exists among
active nodes, so the matching restricted to active nodes is a
(1+ε/2)-approximation there; deactivations cost at most 2δ′|OPT| edges in
expectation, giving (1+ε) overall for δ = Θ(ε²) (Theorem B.4's proof).

Round accounting: one conflict-structure iteration costs O(ℓ) base-graph
rounds in LOCAL; the ledger charges ``iterations × (ℓ+1)`` per phase plus
O(1) per flip wave.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Hashable, List, Optional, Set

import networkx as nx

from ..congest import RoundLedger
from ..errors import InvalidInstance
from ..graphs import check_matching
from .augmenting import (
    augment_with_disjoint_paths,
    enumerate_augmenting_paths,
    verify_hk_phase,
)
from .hypergraph_matching import nearly_maximal_hypergraph_matching
from .stepwise import Checkpoint, phase_names


@dataclass
class OneEpsResult:
    """A matching plus the bookkeeping Theorem B.4 cares about."""

    matching: Set[frozenset]
    deactivated: Set[Hashable]
    rounds: int
    ledger: RoundLedger = field(default_factory=RoundLedger)
    truncated_phases: List[int] = field(default_factory=list)

    @property
    def cardinality(self) -> int:
        return len(self.matching)


def local_matching_1eps_phases(
    graph: nx.Graph,
    eps: float = 0.5,
    seed: int = 0,
    k: float = 2.0,
    failure_delta: Optional[float] = None,
    path_cap: int = 200_000,
    initial_matching: Optional[Set[frozenset]] = None,
    max_rounds: Optional[int] = None,
    capture_state: bool = False,
    resume: Optional[dict] = None,
):
    """Anytime Theorem B.4: one checkpoint per Hopcroft–Karp phase.

    A phase generator yielding ``hk-phase-i`` checkpoints — the
    initial state and then one after every length-ℓ phase.  The
    matching is vertex-disjoint at every phase boundary, so each
    checkpoint is a valid partial solution; its ``extras`` carry the
    ``deactivated`` node set and ``truncated_phases`` so far.

    With ``max_rounds`` set, the generator stops *before* launching a
    phase once the ledger has consumed the budget (cooperative: no
    rounds beyond the budget are simulated) and returns ``None``; a
    run that finishes within the budget — and any run without one —
    returns the usual :class:`OneEpsResult`.

    With ``capture_state=True`` every checkpoint's ``resume_state`` is
    a resume payload; feeding one back as ``resume=`` restarts the
    phase loop at the captured boundary with the matching,
    deactivations and ledger restored.  Phase randomness is keyed per phase length
    (``seed + 31·ℓ``), so a resumed loop replays the exact random
    stream the uncut run would have used — resume ≡ never-stopped.
    """

    if eps <= 0:
        raise InvalidInstance(f"eps must be positive, got {eps}")
    if failure_delta is None:
        failure_delta = max(1e-4, min(0.1, eps * eps / 4.0))
    max_length = 2 * math.ceil(1.0 / eps) + 1
    ledger = RoundLedger()
    matching: Set[frozenset] = set(initial_matching or set())
    if matching:
        check_matching(graph, matching)
    active: Set[Hashable] = set(graph.nodes)
    truncated: List[int] = []
    start_length = 1
    if resume is not None:
        start_length = resume["next_length"]
        matching = set(resume["matching"])
        active -= set(resume["deactivated"])
        truncated = list(resume["truncated_phases"])
        ledger.restore(resume["ledger"])
        # The payload pins the options the original run resolved, so
        # the continuation replays the identical phase parameters even
        # when the caller omits them on resume.
        k = resume["options"]["k"]
        failure_delta = resume["options"]["failure_delta"]
        path_cap = resume["options"]["path_cap"]
    names = phase_names("hk-phase")

    def snapshot(next_length):
        deactivated = set(graph.nodes) - active
        state = None
        if capture_state:
            state = {
                "rounds": ledger.total,
                "next_length": next_length,
                "matching": set(matching),
                "deactivated": set(deactivated),
                "truncated_phases": list(truncated),
                "ledger": ledger.state(),
                "options": {"k": k, "failure_delta": failure_delta,
                            "path_cap": path_cap},
            }
        return Checkpoint(
            phase=next(names), solution=frozenset(matching),
            objective=len(matching), rounds=ledger.total,
            extras={"deactivated": deactivated,
                    "truncated_phases": list(truncated)},
            resume_state=state,
        )

    yield snapshot(start_length)
    for length in range(start_length, max_length + 1, 2):
        if max_rounds is not None and ledger.total >= max_rounds:
            return None
        paths = enumerate_augmenting_paths(
            graph, matching, length, active=active, cap=path_cap,
        )
        ledger.charge(length + 1, f"enumerate-l{length}")
        if paths:
            if len(paths) >= path_cap:
                truncated.append(length)
            verify_hk_phase(graph, matching, paths)
            hyperedges = [frozenset(p) for p in paths]
            outcome = nearly_maximal_hypergraph_matching(
                hyperedges,
                rank=length + 1,
                k=k,
                failure_delta=failure_delta,
                seed=seed + 31 * length,
            )
            # Each conflict-structure iteration = O(ℓ) base-graph rounds.
            ledger.charge(outcome.iterations * (length + 1),
                          f"nmm-phase-l{length}")
            chosen = [paths[i] for i in outcome.matched_edges]
            matching = augment_with_disjoint_paths(matching, chosen)
            ledger.charge(1, f"flip-l{length}")
            active -= outcome.deactivated
            check_matching(graph, matching)
        yield snapshot(length + 2)

    return OneEpsResult(
        matching=matching,
        deactivated=set(graph.nodes) - active,
        rounds=ledger.total,
        ledger=ledger,
        truncated_phases=truncated,
    )


def theorem_b4_round_budget(delta: int, eps: float, k: float = 2.0,
                            failure_delta: Optional[float] = None) -> int:
    """The analytic O(log Δ / (ε³ log log Δ)) budget of Theorem B.4.

    Exposed so the benchmarks can compare measured ledger totals against
    the analytic curve.
    """

    if failure_delta is None:
        failure_delta = max(1e-4, min(0.1, eps * eps / 4.0))
    phases = math.ceil(1.0 / eps) + 1
    per_phase = 0
    for length in range(1, 2 * phases, 2):
        d = length + 1
        per_phase += math.ceil(
            (d ** 2) * ((k ** 2) * math.log(1.0 / failure_delta)
                        + math.log(max(2, delta)) / math.log(k))
        ) * (length + 1)
    return per_phase
