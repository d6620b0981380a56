"""The anytime solve protocol: typed checkpoints and run statuses.

The paper's guarantees are round-for-quality trade-offs — Algorithm 2's
round cost scales with the accuracy it reaches, and the MaxIS analysis
is explicitly "expected value by round T" — so execution is modeled as
a *stream of checkpoints* rather than an all-or-nothing call:

* :class:`Checkpoint` — one phase boundary of a running algorithm: the
  phase label, the partial solution (valid by construction at every
  boundary the runners emit), the objective so far, and the rounds /
  bits consumed to reach it.  It is defined beside the phase
  generators in :mod:`repro.core.stepwise`, which yield it directly,
  and re-exported here;
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

from ..core.stepwise import Checkpoint

#: The run finished inside its budgets (or had none): the algorithm's
#: guarantee applies.
COMPLETE = "complete"
#: The ``Instance.max_rounds`` budget ran out first: the report carries
#: the best valid partial solution and no guarantee bound.
TRUNCATED = "truncated"
STATUSES = (COMPLETE, TRUNCATED)


__all__ = ["COMPLETE", "Checkpoint", "STATUSES", "TRUNCATED"]
