"""The anytime solve protocol: typed checkpoints and run statuses.

The paper's guarantees are round-for-quality trade-offs — Algorithm 2's
round cost scales with the accuracy it reaches, and the MaxIS analysis
is explicitly "expected value by round T" — so execution is modeled as
a *stream of checkpoints* rather than an all-or-nothing call:

* :class:`Checkpoint` — one phase boundary of a running algorithm: the
  phase label, the partial solution (valid by construction at every
  boundary the runners emit), the objective so far, and the rounds /
  bits consumed to reach it;
* :data:`COMPLETE` / :data:`TRUNCATED` — the two terminal statuses a
  :class:`~repro.api.SolveReport` can carry.  A run that exhausts
  ``Instance.max_rounds`` is *truncated*: it returns the best valid
  partial solution observed within the budget instead of raising.

:func:`repro.api.solve_iter` yields these checkpoints;
:func:`repro.api.solve` is a thin driver over it.  Phase-structured
algorithms (``maxis-layers``, the (1+ε) matchers) emit one checkpoint
per paper phase and stop cooperatively when the budget runs out; every
other registered algorithm rides a coarse begin/end adapter, so the
whole registry is interruptible through one protocol.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional

#: The run finished inside its budgets (or had none): the algorithm's
#: guarantee applies.
COMPLETE = "complete"
#: The ``Instance.max_rounds`` budget ran out first: the report carries
#: the best valid partial solution and no guarantee bound.
TRUNCATED = "truncated"
STATUSES = (COMPLETE, TRUNCATED)


@dataclass(frozen=True)
class Checkpoint:
    """One phase boundary of an anytime execution.

    ``solution`` is the partial solution at this boundary — a frozenset
    of nodes (MaxIS/MIS) or of 2-node frozensets (matching) — and
    ``valid`` records whether it satisfies the problem's feasibility
    constraints (every checkpoint the built-in runners emit is valid;
    the flag exists so custom runners can stream infeasible
    intermediate states without the driver adopting them).
    ``rounds`` / ``bits`` are the cumulative communication consumed to
    reach this state.  ``final`` is a best-effort hint: it is set when
    the runner can *tell at emission time* that no further checkpoint
    follows (the coarse begin/end adapter's ``end``, the simulator's
    last snapshot); runners whose phase count is data-dependent (the
    (1+ε) matchers' phase loops) end their stream without a
    final-flagged checkpoint, so the authoritative end-of-stream
    signal is always ``StopIteration``.  ``extras`` carries
    algorithm-specific state (deactivated nodes, stage counters, …)
    that a truncated report preserves.

    ``resume_state``, when present, is a self-describing JSON-safe
    warm-start payload (version, algorithm name, budget-agnostic
    instance fingerprint, consumed rounds, and the algorithm's state
    at this boundary): feed it — or the checkpoint carrying it — to
    :func:`repro.api.resume` to continue the run as if it had never
    stopped.  Runners attach state when the instance carries a round
    budget (an unbudgeted run cannot be cut, so the common path pays
    nothing extra); a :func:`~repro.api.solve_iter` stream's first
    checkpoint always carries at least the fresh-start marker.  An
    unbudgeted :func:`~repro.api.solve` lets no checkpoint out, so it
    builds no envelope at all (not even that marker's fingerprint).
    """

    phase: str
    solution: frozenset
    objective: int
    rounds: int
    bits: int = 0
    valid: bool = True
    final: bool = False
    extras: Dict[str, Any] = field(default_factory=dict)
    resume_state: Optional[Dict[str, Any]] = None


__all__ = ["COMPLETE", "Checkpoint", "STATUSES", "TRUNCATED"]
