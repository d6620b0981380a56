"""``repro.serve`` — the long-lived solver service (NUM-2).

An asyncio HTTP daemon over the anytime/resume stack, started with
``python -m repro serve``.  Clients submit an instance *spec* (the
same deterministic workload recipe the CLI uses) plus optional SLA
budgets and get a job id back.  Each job runs as one task on the
service's thread pool, streams per-phase checkpoints, lands in a
fingerprint-keyed LRU result cache, and journals its latest
``resume_state`` to ``--state-dir`` so a killed daemon restarts and
finishes **bit-identically** to a run that was never interrupted.

Module map:

* :mod:`~repro.serve.cache` — bounded LRU result cache with hit/miss
  counters;
* :mod:`~repro.serve.journal` — crash-safe per-job journal files
  (atomic writes via :func:`repro.api.persist.write_envelope`);
* :mod:`~repro.serve.protocol` — request validation and JSON record
  shapes (specs in, job/result records out);
* :mod:`~repro.serve.jobs` — the job manager: queue, worker pool,
  budget enforcement, checkpoint capture, retry/watchdog/drain
  resilience, recovery;
* :mod:`~repro.serve.health` — the degraded-health circuit breaker
  behind ``/healthz``;
* :mod:`~repro.serve.http` — the minimal stdlib HTTP/1.1 layer
  (``asyncio.start_server``) and route table;
* :mod:`~repro.serve.daemon` — configuration, startup recovery,
  graceful drain and the ``serve`` CLI entry point.

The deterministic fault-injection plane that exercises all of this
lives in :mod:`repro.faults` and is wired in through
``JobManager(fault_plan=...)`` / ``serve --fault-plan FILE``.
"""

from .cache import ResultCache
from .daemon import ServerConfig, main, run_server
from .health import HealthMonitor
from .jobs import DrainingError, Job, JobManager
from .protocol import SpecError, validate_spec

__all__ = [
    "DrainingError",
    "HealthMonitor",
    "Job",
    "JobManager",
    "ResultCache",
    "ServerConfig",
    "SpecError",
    "main",
    "run_server",
    "validate_spec",
]
