"""The solver service's job manager.

Lifecycle (the state machine ``docs/ARCHITECTURE.md`` documents)::

    submit ──cache hit──────────────► complete/truncated  (terminal)
      │
      └─► queued ─► running ─┬─► complete   (terminal)
             ▲               ├─► truncated  (terminal: round, wall or
             │               │               watchdog budget exhausted;
             │               │               best certified partial)
             │               ├─► failed     (terminal, after bounded
             │               │               retries for transient
             │               │               faults)
             │               └─► queued     (graceful drain: final
             │                               checkpoint journaled, job
             │                               resumes on restart)
             │
        (restart recovery: journaled non-terminal jobs re-enter the
         queue, warm-started from their last journaled checkpoint)

Execution is one pool task per job: a dispatcher thread takes each
job id off the submission queue and submits it to one long-lived
``ThreadPoolExecutor`` of ``workers`` threads.  Each task drives
:func:`repro.api.solve_iter` (:func:`repro.api.resume_iter` when it
warm-starts) so the job streams per-phase checkpoints, journals every
captured ``resume_state`` (crash safety), and can stop at a wall-clock
deadline with the best certified partial solution (SLA truncation);
an exception lands on its job, never on the pool.

Resilience plane (PR 8): a seeded
:class:`~repro.faults.FaultPlan` injects deterministic failures at the
compiled-in sites (transient worker exceptions, stalls, journal I/O
errors, dispatcher death); the hardening it exercises is always on —
bounded :class:`~repro.faults.RetryPolicy` retries for transient
failures (each attempt warm-starts from the last journaled checkpoint,
so a retried run stays bit-identical to a fault-free one), a per-job
watchdog that converts stalls into certified ``truncated`` partials,
a :class:`~repro.serve.health.HealthMonitor` circuit breaker behind
``/healthz``, and :meth:`JobManager.drain` for SIGTERM.
"""

from __future__ import annotations

import itertools
import queue
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..api import resume_iter, solve_iter
from ..api.persist import instance_from_workload
from ..faults import DEFAULT_RETRY, FaultPlan, RetryPolicy
from .cache import ResultCache
from .health import HealthMonitor
from .journal import TERMINAL_STATUSES, Journal, job_record
from .protocol import (
    result_record,
    spec_cache_key,
    truncated_result_record,
    validate_spec,
)

QUEUED = "queued"
RUNNING = "running"
COMPLETE = "complete"
TRUNCATED = "truncated"
FAILED = "failed"
STATUSES = (QUEUED, RUNNING, COMPLETE, TRUNCATED, FAILED)


class DrainingError(RuntimeError):
    """Submission rejected because the manager is draining (the HTTP
    layer maps this to 503)."""


@dataclass
class Job:
    """One submitted solve and everything observable about it."""

    id: str
    spec: Dict[str, Any]
    status: str = QUEUED
    checkpoints: int = 0
    rounds: int = 0
    latest: Optional[Dict[str, Any]] = None
    result: Optional[Dict[str, Any]] = None
    error: Optional[str] = None
    cache_hit: bool = False
    recovered: bool = False
    seconds: Optional[float] = None
    #: Execution attempts consumed (1 for a clean first run; transient
    #: failures increment it up to the retry policy's bound).
    attempts: int = 0
    #: Per-attempt error strings, oldest first (empty on a clean run).
    attempt_errors: List[str] = field(default_factory=list)
    #: Warm-start payload a recovered/retried job continues from.
    warm_payload: Optional[Dict[str, Any]] = field(default=None,
                                                  repr=False)
    #: Cooperative-cancellation signal (watchdog / drain), with the
    #: reason recorded so the runner knows how to wind the job down.
    abort_event: threading.Event = field(default_factory=threading.Event,
                                         repr=False, compare=False)
    abort_reason: Optional[str] = field(default=None, repr=False)
    #: Monotonic timestamp of the last observed progress (checkpoint
    #: or state flip) — what the watchdog ages against.
    last_beat: Optional[float] = field(default=None, repr=False)
    #: Guard so exactly one of {worker, watchdog} finishes the job.
    finishing: bool = field(default=False, repr=False)
    #: Best certified checkpoint seen so far (in-memory only; the
    #: watchdog adopts it when it truncates a stalled job externally).
    best_checkpoint: Any = field(default=None, repr=False, compare=False)

    @property
    def done(self) -> bool:
        return self.status in TERMINAL_STATUSES

    def beat(self) -> None:
        self.last_beat = time.monotonic()

    def abort(self, reason: str) -> None:
        """Request cooperative cancellation (first reason wins)."""

        if not self.abort_event.is_set():
            self.abort_reason = reason
            self.abort_event.set()

    def record(self, include_result: bool = True) -> Dict[str, Any]:
        """The job as the HTTP layer reports it."""

        out: Dict[str, Any] = {
            "id": self.id,
            "status": self.status,
            "spec": self.spec,
            "checkpoints": self.checkpoints,
            "rounds": self.rounds,
            "latest": self.latest,
            "error": self.error,
            "cache_hit": self.cache_hit,
            "recovered": self.recovered,
            "attempts": self.attempts,
            "attempt_errors": list(self.attempt_errors),
        }
        if include_result:
            out["result"] = self.result
        return out


def _checkpoint_record(checkpoint) -> Dict[str, Any]:
    """The poll/stream view of one checkpoint (payload included, so a
    client can persist its own resume file at any boundary)."""

    return {
        "phase": checkpoint.phase,
        "rounds": checkpoint.rounds,
        "objective": checkpoint.objective,
        "valid": checkpoint.valid,
        "final": checkpoint.final,
        "resume": checkpoint.resume_state,
    }


def percentile(samples: List[float], q: float) -> float:
    """Linear-interpolation percentile (``q`` in [0, 100]) of a
    non-empty sample list."""

    if not samples:
        raise ValueError("percentile() of empty sequence")
    ordered = sorted(samples)
    if len(ordered) == 1:
        return ordered[0]
    rank = (len(ordered) - 1) * q / 100.0
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


class JobManager:
    """Queue, worker pool, cache, journal, health and fault plane."""

    def __init__(self, workers: int = 2,
                 state_dir: Optional[str] = None,
                 cache_size: int = 128,
                 phase_delay_s: float = 0.0,
                 fault_plan: Optional[FaultPlan] = None,
                 retry: Optional[RetryPolicy] = DEFAULT_RETRY,
                 watchdog_s: Optional[float] = None,
                 journal_retain: Optional[int] = None):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if watchdog_s is not None and watchdog_s <= 0:
            raise ValueError(
                f"watchdog_s must be positive, got {watchdog_s}")
        if journal_retain is not None and journal_retain < 0:
            raise ValueError(
                f"journal_retain must be >= 0, got {journal_retain}")
        self.workers = workers
        #: Test/experiment knob: sleep this long after every checkpoint
        #: so kill-mid-solve scenarios can aim between phases.
        self.phase_delay_s = phase_delay_s
        self.faults = fault_plan
        self.retry = retry
        self.watchdog_s = watchdog_s
        #: Journal compaction cap: keep at most this many terminal-job
        #: journal files across restarts (``None`` = keep everything).
        self.journal_retain = journal_retain
        self.health = HealthMonitor()
        self.cache = ResultCache(maxsize=cache_size)
        self.journal = Journal(state_dir, health=self.health,
                               fault_plan=fault_plan)
        self._jobs: Dict[str, Job] = {}
        self._order: List[str] = []
        self._lock = threading.RLock()
        self._inbox: "queue.Queue[Optional[str]]" = queue.Queue()
        self._stop = threading.Event()
        self._draining = threading.Event()
        self._pool: Optional[ThreadPoolExecutor] = None
        self._dispatcher: Optional[threading.Thread] = None
        self._watchdog: Optional[threading.Thread] = None
        self._latencies: List[float] = []
        self._seq = itertools.count(1)
        self._recovery = {"restored": 0, "requeued": 0, "skipped": 0,
                          "swept_tmp": 0, "pruned": 0}

    # -- lifecycle -----------------------------------------------------
    def start(self) -> None:
        """Spin up the worker pool, dispatcher and watchdog
        (idempotent)."""

        if self._pool is not None:
            return
        self._pool = ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="repro-serve",
        )
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="repro-serve-dispatch",
            daemon=True,
        )
        self._dispatcher.start()
        if self.watchdog_s is not None:
            self._watchdog = threading.Thread(
                target=self._watchdog_loop, name="repro-serve-watchdog",
                daemon=True,
            )
            self._watchdog.start()

    @property
    def draining(self) -> bool:
        return self._draining.is_set()

    def drain(self, timeout_s: float = 10.0) -> Dict[str, Any]:
        """Graceful wind-down: stop accepting, stop dispatching, and
        bring every in-flight job to a journaled stopping point.

        Running jobs are asked to stop at their next checkpoint
        boundary; each journals a final ``queued`` record carrying its
        freshest resume envelope and re-enters (in-memory) ``queued``
        state, so a restart on the same state dir requeues and
        finishes it **bit-identically** to a never-stopped run.  Jobs
        still waiting in the queue keep the ``queued`` record they
        were journaled with at submission.  Returns drain stats
        (``clean`` is False if a job missed the timeout).
        """

        started = time.monotonic()
        self._draining.set()
        self._stop.set()
        self._inbox.put(None)
        with self._lock:
            running = [job for job in self._jobs.values()
                       if job.status == RUNNING]
            queued = [job for job in self._jobs.values()
                      if job.status == QUEUED]
        for job in running:
            job.abort("drain")
        deadline = started + timeout_s
        clean = True
        for job in running:
            while job.status == RUNNING:
                if time.monotonic() > deadline:
                    clean = False
                    break
                time.sleep(0.005)
        if self._dispatcher is not None:
            self._dispatcher.join(
                timeout=max(0.1, deadline - time.monotonic()))
            clean = clean and not self._dispatcher.is_alive()
        drained = sum(1 for job in running if job.status == QUEUED)
        return {
            "drained": drained,
            "queued": len(queued),
            "terminal": sum(1 for job in running if job.done),
            "clean": clean,
            "seconds": time.monotonic() - started,
        }

    def shutdown(self, wait: bool = False) -> bool:
        """Stop dispatching; optionally wait for in-flight jobs.

        Returns ``True`` for a clean stop.  A dispatcher thread that
        fails to exit within the join timeout is a hang: health is
        degraded and ``False`` comes back so the daemon can exit
        nonzero and get itself restarted by a supervisor.
        """

        self._stop.set()
        self._inbox.put(None)
        clean = True
        if self._dispatcher is not None:
            self._dispatcher.join(timeout=5)
            if self._dispatcher.is_alive():
                self.health.dispatcher_dead()
                clean = False
        if self._watchdog is not None:
            self._watchdog.join(timeout=5)
            clean = clean and not self._watchdog.is_alive()
        if self._pool is not None:
            self._pool.shutdown(wait=wait)
        return clean

    # -- recovery ------------------------------------------------------
    def recover(self) -> Dict[str, int]:
        """Replay the journal into the manager (call before
        :meth:`start`).

        Terminal records re-register as finished jobs and re-seed the
        result cache; non-terminal records re-enter the queue, warm-
        started from their last journaled checkpoint when one was
        captured (otherwise the deterministic cold rerun *is* the
        uninterrupted run).  Stale ``*.tmp.<pid>`` leftovers of
        crashed atomic writes are swept first, and unreadable/foreign
        journal files are counted, not silently skipped.  When
        ``journal_retain`` is set, the journal is compacted: only the
        newest ``N`` terminal-job files survive on disk (the in-memory
        jobs are all kept — only their crash-recovery records go).
        Returns ``{"restored", "requeued", "skipped", "swept_tmp",
        "pruned"}``.
        """

        restored = requeued = 0
        swept = self.journal.sweep_stale_tmp()
        max_seq = 0
        terminal_ids: List[str] = []
        with self._lock:
            for job_id, record in self.journal.replay():
                try:
                    seq = int(job_id.split("-")[1])
                except (IndexError, ValueError):
                    seq = 0
                max_seq = max(max_seq, seq)
                job = Job(id=job_id, spec=record["spec"],
                          status=record["status"],
                          rounds=record.get("rounds", 0),
                          result=record.get("result"),
                          error=record.get("error"),
                          recovered=True)
                self._jobs[job_id] = job
                self._order.append(job_id)
                if job.done:
                    deterministic = (
                        job.result is not None
                        and not (job.result.get("status") == TRUNCATED
                                 and job.spec.get("time_budget_s")
                                 is not None)
                    )
                    if deterministic:
                        self.cache.put(spec_cache_key(job.spec),
                                       job.result)
                    restored += 1
                    terminal_ids.append(job_id)
                    continue
                envelope = record.get("envelope")
                if isinstance(envelope, dict):
                    job.warm_payload = envelope.get("payload")
                job.status = QUEUED
                self._inbox.put(job_id)
                requeued += 1
            self._seq = itertools.count(max_seq + 1)
        pruned = 0
        if self.journal_retain is not None:
            # Replay order is job-id order, so the front of the list is
            # the oldest terminal work: compact those files first.
            excess = len(terminal_ids) - self.journal_retain
            for job_id in terminal_ids[:max(0, excess)]:
                self.journal.remove(job_id)
                pruned += 1
        stats = {"restored": restored, "requeued": requeued,
                 "skipped": self.journal.last_skipped,
                 "swept_tmp": swept, "pruned": pruned}
        self._recovery = stats
        return stats

    # -- submission ----------------------------------------------------
    def submit(self, body: Any) -> Job:
        """Validate a spec and enqueue (or instantly serve) its job.

        Raises :class:`~repro.serve.protocol.SpecError` on a bad spec
        and :class:`DrainingError` once :meth:`drain` has begun.  A
        result-cache hit never queues: the job is born terminal with
        the cached record.
        """

        if self._draining.is_set():
            raise DrainingError("service is draining; not accepting jobs")
        spec = validate_spec(body)
        key = spec_cache_key(spec)
        cached = self.cache.get(key)
        with self._lock:
            job_id = f"job-{next(self._seq):06d}-{key.split(':')[0]}"
            job = Job(id=job_id, spec=spec)
            self._jobs[job_id] = job
            self._order.append(job_id)
            if cached is not None:
                job.status = cached["status"]
                job.result = cached
                job.rounds = cached["rounds"]
                job.cache_hit = True
                job.seconds = 0.0
                self._journal_terminal(job)
                return job
            self._journal_running(job, payload=None)
        self._inbox.put(job_id)
        return job

    # -- views ---------------------------------------------------------
    def get(self, job_id: str) -> Optional[Job]:
        with self._lock:
            return self._jobs.get(job_id)

    def jobs(self) -> List[Job]:
        with self._lock:
            return [self._jobs[job_id] for job_id in self._order]

    def stats(self) -> Dict[str, Any]:
        """The ``GET /stats`` payload (and the faults experiment's raw
        material): job/queue/cache/latency/round counters plus health,
        retry and recovery observability."""

        with self._lock:
            by_status = {status: 0 for status in STATUSES}
            rounds = checkpoints = retries = 0
            for job in self._jobs.values():
                by_status[job.status] = by_status.get(job.status, 0) + 1
                rounds += job.rounds
                checkpoints += job.checkpoints
                retries += max(0, job.attempts - 1)
            latencies = list(self._latencies)
            total = len(self._jobs)
        latency = {"count": len(latencies), "p50_ms": 0.0, "p95_ms": 0.0}
        if latencies:
            latency["p50_ms"] = percentile(latencies, 50.0) * 1000.0
            latency["p95_ms"] = percentile(latencies, 95.0) * 1000.0
        return {
            "jobs": {"total": total, "by_status": by_status},
            "queue_depth": by_status[QUEUED],
            "workers": self.workers,
            "cache": self.cache.stats(),
            "latency": latency,
            "rounds_total": rounds,
            "checkpoints_total": checkpoints,
            "retries_total": retries,
            "health": self.health.snapshot(),
            "recovery": dict(self._recovery),
            "journal_errors": self.journal.errors,
            "draining": self._draining.is_set(),
        }

    # -- journaling ----------------------------------------------------
    def _journal_running(self, job: Job,
                         payload: Optional[Dict[str, Any]]) -> None:
        self.journal.write(job_record(
            job.id, job.spec, job.status, rounds=job.rounds,
            payload=payload,
        ))

    def _journal_terminal(self, job: Job) -> None:
        payload = None
        if job.result is not None:
            payload = job.result.get("resume")
        self.journal.write(job_record(
            job.id, job.spec, job.status, rounds=job.rounds,
            payload=payload, result=job.result, error=job.error,
        ))

    # -- dispatch ------------------------------------------------------
    def _dispatch_loop(self) -> None:
        """Submit each queued job id to the shared pool as its own task.

        A dispatcher crash (real, or the ``dispatcher.death`` fault
        site) must not be invisible: the exception degrades health, so
        ``/healthz`` turns 503 while queued jobs — still journaled —
        wait for the restart that recovers them.
        """

        try:
            while not self._stop.is_set():
                try:
                    job_id = self._inbox.get(timeout=0.05)
                except queue.Empty:
                    continue
                if job_id is None:
                    break
                if self.faults is not None:
                    self.faults.maybe_raise("dispatcher.death",
                                            scope="dispatch")
                self._pool.submit(self._execute_task, job_id)
        except Exception:  # noqa: BLE001 — dying loudly, not silently
            self.health.dispatcher_dead()

    # -- watchdog ------------------------------------------------------
    def _watchdog_loop(self) -> None:
        """Convert stalled jobs into certified ``truncated`` partials.

        A running job whose last progress beat is older than
        ``watchdog_s`` is aborted cooperatively *and* finished
        externally from its best certified checkpoint — so even a
        phase the runner cannot interrupt yields a valid partial
        result instead of hanging the client forever (the abandoned
        worker thread's late result is discarded by the finish guard).
        """

        interval = min(0.05, self.watchdog_s / 4.0)
        while not self._stop.wait(interval):
            now = time.monotonic()
            with self._lock:
                stalled = [
                    job for job in self._jobs.values()
                    if job.status == RUNNING
                    and job.last_beat is not None
                    and now - job.last_beat > self.watchdog_s
                ]
            for job in stalled:
                job.abort("watchdog")
                record = truncated_result_record(
                    job.spec, job.best_checkpoint, job.warm_payload,
                    job.spec["workload"]["problem"],
                )
                # Watchdog records are timing-dependent (where the
                # stall hit): never cache them.
                self._finish(job, record, seconds=0.0, cacheable=False)

    # -- execution -----------------------------------------------------
    def _execute_task(self, job_id: str) -> None:
        """Pool task for one job: bounded retries around
        :meth:`_execute` (exceptions land on the job, not the pool)."""

        job = self.get(job_id)
        if job is None or job.done:
            return
        max_attempts = (self.retry.max_attempts
                        if self.retry is not None else 1)
        for attempt in range(1, max_attempts + 1):
            try:
                self._execute(job, attempt)
                return
            except Exception as exc:  # noqa: BLE001 — jobs must not sink pool
                self.health.worker_crash()
                error = f"{type(exc).__name__}: {exc}"
                with self._lock:
                    job.attempts = attempt
                    job.attempt_errors.append(error)
                    job.error = error
                retryable = (self.retry is not None
                             and self.retry.retryable(exc)
                             and attempt < max_attempts)
                if retryable:
                    # Deterministically jittered backoff, interruptible
                    # by drain/watchdog.
                    aborted = job.abort_event.wait(
                        self.retry.delay(attempt, key=job.id))
                    if aborted and job.abort_reason == "drain":
                        self._drain_requeue(job, job.warm_payload)
                        return
                    continue
                # Journal before flipping the status: the moment a
                # poller sees the job terminal, the journal agrees.
                self.journal.write(job_record(
                    job.id, job.spec, FAILED, rounds=job.rounds,
                    error=job.error,
                ))
                with self._lock:
                    job.status = FAILED
                return

    def _execute(self, job: Job, attempt: int = 1) -> None:
        """Drive one job's checkpoint stream to a terminal record.

        Checking for drain and flipping to ``running`` are one critical
        section, so :meth:`drain` either sees the job running (and
        parks it at its next checkpoint) or the job sees the drain.
        """

        spec = job.spec
        with self._lock:
            if self._draining.is_set() and job.status == QUEUED:
                # Never started: the submit-time ``queued`` journal
                # record already describes this job for the restart.
                return
            job.status = RUNNING
            job.attempts = attempt
            job.beat()
        if self.faults is not None:
            self.faults.maybe_raise("worker.transient",
                                    scope=f"{job.id}:a{attempt}")
        self._journal_running(job, payload=job.warm_payload)
        problem = spec["workload"]["problem"]
        instance = instance_from_workload(
            spec["workload"], max_rounds=spec["max_rounds"],
        )
        deadline = None
        if spec["time_budget_s"] is not None:
            deadline = time.monotonic() + spec["time_budget_s"]
        started = time.perf_counter()
        if job.warm_payload is not None:
            stream = resume_iter(job.warm_payload, instance=instance,
                                 algorithm=spec["algorithm"],
                                 problem=problem, **spec["options"])
        else:
            stream = solve_iter(instance, spec["algorithm"],
                                problem=problem, **spec["options"])
        best = job.best_checkpoint
        last_payload = job.warm_payload
        report = None
        while True:
            try:
                checkpoint = next(stream)
            except StopIteration as stop:
                report = stop.value
                break
            with self._lock:
                if job.done:
                    # The watchdog finished this job externally while a
                    # phase ran long; the late stream is abandoned.
                    stream.close()
                    return
                job.checkpoints += 1
                job.rounds = checkpoint.rounds
                job.latest = _checkpoint_record(checkpoint)
                job.beat()
            if checkpoint.valid:
                best = checkpoint
                job.best_checkpoint = checkpoint
                if checkpoint.resume_state is not None:
                    last_payload = checkpoint.resume_state
                    # Crash safety: the journal always holds the
                    # newest resumable boundary — and a retried or
                    # drained attempt warm-starts from it.
                    job.warm_payload = last_payload
                    self._journal_running(job, payload=last_payload)
            if self.faults is not None and self.faults.roll(
                    "worker.stall", scope=f"{job.id}:c{job.checkpoints}"):
                # The stall waits on the abort event, so watchdog and
                # drain can cut it short.
                job.abort_event.wait(
                    self.faults.rule("worker.stall").stall_s)
            if self.phase_delay_s:
                job.abort_event.wait(self.phase_delay_s)
            if job.abort_event.is_set():
                stream.close()
                if job.abort_reason == "drain":
                    self._drain_requeue(job, last_payload)
                    return
                # Watchdog abort: adopt the best certified checkpoint
                # (the watchdog usually beat us to _finish; the guard
                # makes the second call a no-op).
                record = truncated_result_record(
                    spec, best, last_payload, problem,
                )
                self._finish(job, record,
                             time.perf_counter() - started,
                             cacheable=False)
                return
            if deadline is not None and time.monotonic() >= deadline:
                # SLA truncation: stop the run cooperatively and adopt
                # the best certified checkpoint the deadline admitted.
                stream.close()
                record = truncated_result_record(
                    spec, best, last_payload, problem,
                )
                # Where a wall-clock deadline lands is timing-dependent,
                # so the record is not deterministic — keep it out of
                # the cache (whose key deliberately ignores the wall
                # budget).
                self._finish(job, record, time.perf_counter() - started,
                             cacheable=False)
                return
        record = result_record(report)
        self._finish(job, record, time.perf_counter() - started)

    def _drain_requeue(self, job: Job,
                       payload: Optional[Dict[str, Any]]) -> None:
        """Wind one running job down for drain: journal a final
        non-terminal record with its freshest resume envelope, then
        park it back in ``queued`` so restart recovery resumes it."""

        if payload is None:
            payload = job.warm_payload
        self.journal.write(job_record(
            job.id, job.spec, QUEUED, rounds=job.rounds,
            payload=payload,
        ))
        with self._lock:
            job.warm_payload = payload
            job.status = QUEUED

    def _finish(self, job: Job, record: Dict[str, Any],
                seconds: float, cacheable: bool = True) -> bool:
        with self._lock:
            if job.done or job.finishing:
                return False
            job.finishing = True
        if cacheable:
            self.cache.put(spec_cache_key(job.spec), record)
        with self._lock:
            job.result = record
            job.rounds = record["rounds"]
            job.seconds = seconds
            if job.attempts == 0:
                job.attempts = 1
            self._latencies.append(seconds)
        # Journal before flipping the status: the status change is the
        # commit point pollers observe, so once ``job.done`` is true the
        # terminal record is already durable.
        self.journal.write(job_record(
            job.id, job.spec, record["status"], rounds=record["rounds"],
            payload=record.get("resume"), result=record, error=job.error,
        ))
        with self._lock:
            job.status = record["status"]
        return True


__all__ = ["DrainingError", "Job", "JobManager", "COMPLETE", "FAILED",
           "QUEUED", "RUNNING", "STATUSES", "TRUNCATED"]
