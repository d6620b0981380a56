"""``repro.faults`` — the deterministic fault-injection plane.

Chaos testing for the reproduction's production layers: a seeded
:class:`FaultPlan` describes which compiled-in fault sites misbehave
(journal write errors, torn temp files, transient worker exceptions,
stalls, stream disconnects, dispatcher death) and is threaded through
``JobManager(fault_plan=...)`` and
``python -m repro serve --fault-plan FILE``.  Decisions are pure
functions of ``(seed, site, scope, roll index)``, so a chaos run is
exactly reproducible — the ``faults`` experiment commits its recovery
metrics as a byte-deterministic ``BENCH_faults.json``.

Module map:

* :mod:`~repro.faults.plan` — :class:`FaultPlan` / :class:`SiteRule`,
  the site catalog, and the ``--fault-plan`` file codec;
* :mod:`~repro.faults.retry` — :class:`RetryPolicy`, the service's
  bounded exponential backoff (deterministic jitter).
"""

from .plan import FAULT_PLAN_FORMAT, SITES, FaultPlan, SiteRule, make_fault
from .retry import DEFAULT_RETRY, RETRYABLE, RetryPolicy

__all__ = [
    "DEFAULT_RETRY",
    "FAULT_PLAN_FORMAT",
    "RETRYABLE",
    "SITES",
    "FaultPlan",
    "RetryPolicy",
    "SiteRule",
    "make_fault",
]
