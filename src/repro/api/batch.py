"""Batch execution: ``solve_many`` over an instance grid.

This module is the API layer of the batch execution engine.  It owns
two things:

* :func:`execute_indexed` — the generic fan-out core shared with the
  experiment runner (``repro.experiments.runner``): run a picklable
  task function over an indexed task list serially, on a process
  pool or on a caller's executor, with chunking, per-task failure
  isolation and results returned **in submission order** regardless
  of completion order;
* :func:`solve_many` — fan a grid of :class:`~repro.api.Instance`
  objects (optionally crossed with several algorithms) across that
  core and aggregate the :class:`~repro.api.SolveReport` results into
  one :class:`BatchReport`.

Determinism contract
--------------------
Each task is identified by a stable :func:`instance_fingerprint`
(SHA-256 over the graph structure, weights and every solve-relevant
``Instance`` field) plus the algorithm name.  Results are merged by
submission index, so the items of a :class:`BatchReport` are in the
same order for any backend and any worker count; the per-item
``seconds`` wall-clock field is the only non-deterministic data.

A crashing task never sinks the batch: its :class:`BatchItem` records
the error string and ``report=None``; healthy tasks are unaffected
(``BatchReport.failures`` lists the casualties).  A task runs once;
bounded retries belong to the solver service
(:class:`~repro.serve.jobs.JobManager`).
"""

from __future__ import annotations

import hashlib
import os
import time
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    Executor,
    wait,
)
from dataclasses import dataclass, field
from statistics import median
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from .instance import Instance
from .report import SolveReport

#: Recognised executor backends.
SERIAL = "serial"
PROCESS = "process"
BACKENDS = (SERIAL, PROCESS)

#: At most this many chunks are in flight per worker; bounding the
#: backlog keeps memory flat on huge grids without starving the pool.
_IN_FLIGHT_PER_WORKER = 4


# ----------------------------------------------------------------------
# the generic fan-out core (shared with the experiment runner)
# ----------------------------------------------------------------------
def _default_chunksize(n_tasks: int, workers: int) -> int:
    """Aim for ~4 chunks per worker so stragglers can rebalance."""

    return max(1, n_tasks // max(1, workers * 4))


def _run_chunk(fn: Callable, chunk: Sequence[Tuple[int, object]]) -> List[tuple]:
    """Execute one chunk of ``(index, task)`` pairs, isolating failures.

    Runs in the worker process/thread.  Returns ``(index, result,
    error)`` triples; ``error`` is ``None`` on success, else
    ``"ExcType: message"`` with the result set to ``None``.
    """

    out = []
    for index, task in chunk:
        try:
            out.append((index, fn(task), None))
        except Exception as exc:  # noqa: BLE001 — failure isolation
            out.append((index, None, f"{type(exc).__name__}: {exc}"))
    return out


def _resolve_executor(
    executor: Union[str, Executor, None], workers: Optional[int],
) -> Tuple[Union[str, Executor], int]:
    """The executor that will actually run, and its worker count.

    ``None`` means serial for ``workers in (None, 0, 1)`` and a process
    pool otherwise; a pool name without a worker count gets one worker
    per CPU, and a single-worker pool runs in-process (serial).  An
    executor instance passes through with the caller's count (0 when
    unset).
    """

    if isinstance(executor, str) and executor not in BACKENDS:
        raise ValueError(
            f"unknown executor {executor!r} (expected one of {BACKENDS})"
        )
    workers = int(workers) if workers else 0
    if executor is None:
        executor = PROCESS if workers > 1 else SERIAL
    if isinstance(executor, str):
        if executor != SERIAL and workers <= 0:
            workers = os.cpu_count() or 1
        if workers <= 1:
            executor = SERIAL
    return executor, workers


def execute_indexed(
    fn: Callable,
    tasks: Sequence[object],
    executor: Union[str, Executor, None] = None,
    workers: Optional[int] = None,
    chunksize: Optional[int] = None,
) -> List[Tuple[object, Optional[str]]]:
    """Run ``fn`` over ``tasks``; return ``(result, error)`` pairs in order.

    ``executor`` is a backend name (``"serial"`` / ``"process"``), an
    already-constructed :class:`concurrent.futures.Executor` (not shut
    down by us; serve passes its thread pool), or ``None`` meaning
    serial for ``workers in (None, 0, 1)`` and a process pool
    otherwise.  ``fn`` and every task must be picklable for the
    process backend.  Chunks of ``chunksize`` tasks amortise
    per-future overhead; submission is throttled so at most
    ``4 × workers`` chunks are in flight at once.
    """

    tasks = list(tasks)
    executor, workers = _resolve_executor(executor, workers)
    if executor == SERIAL:
        return [
            (result, error)
            for _, result, error in _run_chunk(fn, list(enumerate(tasks)))
        ]

    if isinstance(executor, str):
        from concurrent.futures import ProcessPoolExecutor

        pool: Executor = ProcessPoolExecutor(max_workers=workers)
        own_pool = True
    else:
        pool, own_pool = executor, False
        workers = workers or getattr(pool, "_max_workers", 1)

    if chunksize is None:
        chunksize = _default_chunksize(len(tasks), workers)
    indexed = list(enumerate(tasks))
    chunks = [
        indexed[i:i + chunksize] for i in range(0, len(indexed), chunksize)
    ]

    results: List[Optional[Tuple[object, Optional[str]]]] = [None] * len(tasks)
    try:
        pending = set()
        backlog = max(1, workers) * _IN_FLIGHT_PER_WORKER
        cursor = 0
        while cursor < len(chunks) or pending:
            while cursor < len(chunks) and len(pending) < backlog:
                pending.add(pool.submit(_run_chunk, fn, chunks[cursor]))
                cursor += 1
            done, pending = wait(pending, return_when=FIRST_COMPLETED)
            for future in done:
                for index, result, error in future.result():
                    results[index] = (result, error)
    except BrokenExecutor as exc:
        # A worker died outright (OOM-kill, segfault) — the per-task
        # try/except inside _run_chunk never got the chance to record
        # it.  Keep every already-completed result and mark everything
        # unfinished as failed, preserving the failure-isolation
        # contract in degraded form.
        error = f"{type(exc).__name__}: worker died ({exc})"
        for index, slot in enumerate(results):
            if slot is None:
                results[index] = (None, error)
    finally:
        if own_pool:
            pool.shutdown(wait=True)
    return results  # type: ignore[return-value]


# ----------------------------------------------------------------------
# instance fingerprints
# ----------------------------------------------------------------------
def instance_fingerprint(instance: Instance) -> str:
    """A stable hex digest identifying one instance's solve inputs.

    Covers the node set (with weights), edge set (with weights), and
    every :class:`~repro.api.Instance` field that influences a solve
    (model, ε, seed, budgets, strictness).  Stable across processes
    and platforms — unlike ``hash()``, which is salted — so batch
    results can be keyed and diffed between runs.

    Node identifiers are serialized via ``repr``, so the cross-process
    stability contract holds for value-like ids (ints, strings,
    tuples, frozensets — everything the library's generators produce);
    objects whose repr embeds a memory address fingerprint per-process
    only.
    """

    graph = instance.graph
    # One repr per node, reused for both ends of its edges, and one
    # compare to order each edge's ends: the same key as sorting two
    # fresh reprs per edge, with far fewer temporaries.
    names = {}
    nodes = []
    for v, data in graph.nodes(data=True):
        name = names[v] = repr(v)
        nodes.append((name, repr(data.get("weight", 1))))
    nodes.sort()
    edges = []
    for u, v, data in graph.edges(data=True):
        a, b = names[u], names[v]
        weight = repr(data.get("weight", 1))
        edges.append((a, b, weight) if a <= b else (b, a, weight))
    edges.sort()
    fields = (
        nodes, edges, instance.model, instance.eps, instance.seed,
        instance.max_rounds, instance.bandwidth_factor, instance.strict,
    )
    if instance.machines is not None or instance.delta is not None:
        # MPC topology participates only when set, so every pre-MPC
        # instance keeps its historical fingerprint (committed batch
        # artifacts and persisted resume envelopes stay valid).
        fields = fields + (instance.machines, instance.delta)
    key = repr(fields)
    return hashlib.sha256(key.encode("utf-8")).hexdigest()[:16]


# ----------------------------------------------------------------------
# solve_many
# ----------------------------------------------------------------------
@dataclass
class BatchItem:
    """One ``(instance, algorithm)`` task outcome inside a batch."""

    index: int
    fingerprint: str
    algorithm: str
    report: Optional[SolveReport] = None
    error: Optional[str] = None
    seconds: float = 0.0

    @property
    def ok(self) -> bool:
        """Whether the task produced a report (truncated counts as ok)."""
        return self.error is None

    @property
    def status(self) -> str:
        """``"complete"``/``"truncated"`` from the report, ``"failed"``
        for a crashed task.  A truncated task is a *successful* one —
        it returned the best valid partial solution its round budget
        admitted — so it counts toward ``ok``, never ``failures``."""

        return "failed" if self.error is not None else self.report.status


@dataclass
class BatchReport:
    """Aggregate of one :func:`solve_many` call.

    ``items`` are in submission order (instance-major, algorithm-minor)
    for every backend.  ``elapsed`` is the wall-clock of the whole
    batch; per-item ``seconds`` are measured inside the worker.
    """

    items: List[BatchItem] = field(default_factory=list)
    backend: str = SERIAL
    workers: int = 1
    elapsed: float = 0.0

    def __iter__(self):
        return iter(self.items)

    def __len__(self) -> int:
        return len(self.items)

    @property
    def ok(self) -> List[BatchItem]:
        """The successful items, in submission order."""
        return [item for item in self.items if item.ok]

    @property
    def failures(self) -> List[BatchItem]:
        """Items whose task raised; crashing tasks never sink the batch."""
        return [item for item in self.items if not item.ok]

    @property
    def truncated(self) -> List[BatchItem]:
        """Tasks whose round budget ran out (successful partial runs)."""

        return [item for item in self.items
                if item.ok and item.report.status != "complete"]

    @property
    def reports(self) -> List[SolveReport]:
        """The successful reports, in submission order."""

        return [item.report for item in self.items if item.ok]

    def get(self, fingerprint: str, algorithm: str) -> BatchItem:
        """Look one item up by ``(fingerprint, algorithm)`` key."""

        for item in self.items:
            if (item.fingerprint, item.algorithm) == (fingerprint, algorithm):
                return item
        raise KeyError(f"no batch item ({fingerprint!r}, {algorithm!r})")

    def latencies(self) -> List[float]:
        """Per-task worker seconds of the successful items."""

        return [item.seconds for item in self.items if item.ok]

    def trials_per_second(self) -> float:
        """Successful-trial throughput over the batch wall-clock."""
        return len(self.ok) / self.elapsed if self.elapsed > 0 else 0.0

    def summary(self) -> Dict[str, object]:
        """Objective / round / traffic aggregates over the successes."""

        reports = self.reports
        objectives = [r.objective for r in reports]
        rounds = [r.rounds for r in reports]
        messages = sum(
            r.metrics.messages for r in reports if r.metrics is not None
        )
        bits = sum(r.metrics.bits for r in reports if r.metrics is not None)
        statuses: Dict[str, int] = {}
        for item in self.items:
            status = item.status
            statuses[status] = statuses.get(status, 0) + 1
        out: Dict[str, object] = {
            "tasks": len(self.items),
            "ok": len(reports),
            "failed": len(self.failures),
            "statuses": statuses,
            "backend": self.backend,
            "workers": self.workers,
            "rounds_total": sum(rounds),
            "messages_total": messages,
            "bits_total": bits,
        }
        if objectives:
            out["objective"] = {
                "min": min(objectives),
                "max": max(objectives),
                "mean": sum(objectives) / len(objectives),
                "median": median(objectives),
                "total": sum(objectives),
            }
        return out


def _solve_task(task: tuple) -> Tuple[SolveReport, float]:
    """Worker body: one facade solve, timed.  Module-level → picklable.

    ``task`` is ``(instance, algorithm, options)``.  Returns ``(report,
    seconds)``; a failure raises and :func:`_run_chunk` records it.
    """

    from .facade import solve

    instance, algorithm, options = task
    started = time.perf_counter()
    report = solve(instance, algorithm, **options)
    return report, time.perf_counter() - started


def solve_many(
    instances: Iterable[Instance],
    algorithms: Union[str, Sequence[str]],
    executor: Union[str, Executor, None] = None,
    workers: Optional[int] = None,
    **options,
) -> BatchReport:
    """Solve every instance with every algorithm, optionally in parallel.

    Parameters
    ----------
    instances:
        The instance grid.  Bare graphs are not accepted here — build
        real :class:`~repro.api.Instance` objects so seeds are explicit.
    algorithms:
        One registry name or a sequence of names; the task list is the
        cross product ``instances × algorithms`` in that order.
    executor, workers:
        Backend selection, see :func:`execute_indexed`.  The default is
        serial for ``workers <= 1`` and a process pool otherwise.
    **options:
        Forwarded verbatim to every :func:`~repro.api.solve` call.

    Returns a :class:`BatchReport`; a task that raises is recorded as a
    failed :class:`BatchItem` without aborting its siblings.
    """

    if isinstance(algorithms, str):
        algorithms = (algorithms,)
    tasks: List[tuple] = []
    keys: List[Tuple[str, str]] = []
    for instance in instances:
        fingerprint = instance_fingerprint(instance)
        for algorithm in algorithms:
            tasks.append((instance, algorithm, options))
            keys.append((fingerprint, algorithm))

    executor, workers = _resolve_executor(executor, workers)
    backend = executor if isinstance(executor, str) else "external"

    started = time.perf_counter()
    outcomes = execute_indexed(_solve_task, tasks, executor=executor,
                               workers=workers)
    elapsed = time.perf_counter() - started

    items = []
    for index, ((fingerprint, algorithm), (result, error)) in enumerate(
        zip(keys, outcomes)
    ):
        report, seconds = (None, 0.0) if error is not None else result
        items.append(BatchItem(
            index=index, fingerprint=fingerprint, algorithm=algorithm,
            report=report, error=error, seconds=seconds,
        ))
    return BatchReport(
        items=items,
        backend=backend,
        workers=max(1, workers),
        elapsed=elapsed,
    )


__all__ = [
    "BACKENDS",
    "BatchItem",
    "BatchReport",
    "PROCESS",
    "SERIAL",
    "execute_indexed",
    "instance_fingerprint",
    "solve_many",
]
