"""Batch execution: ``solve_many`` over an instance grid.

This module is the API layer of the batch execution engine.  It owns
two things:

* :func:`execute_indexed` — the generic fan-out core shared with the
  experiment runner (``repro.experiments.runner``): run a picklable
  task function over an indexed task list in-process or on a process
  pool, chosen by ``workers`` alone, with chunking, per-task failure
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

import gc
import hashlib
import time
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
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

#: ``BatchReport.backend`` values: in-process, or a process pool.
SERIAL = "serial"
PROCESS = "process"

#: At most this many chunks are in flight per worker; bounding the
#: backlog keeps memory flat on huge grids without starving the pool.
_IN_FLIGHT_PER_WORKER = 4


# ----------------------------------------------------------------------
# the generic fan-out core (shared with the experiment runner)
# ----------------------------------------------------------------------
def _run_chunk(fn: Callable, chunk: Sequence[Tuple[int, object]]) -> List[tuple]:
    """Execute one chunk of ``(index, task)`` pairs, isolating failures.

    Runs in the calling process or in a pool worker.  Returns
    ``(index, result, error)`` triples; ``error`` is ``None`` on success, else
    ``"ExcType: message"`` with the result set to ``None``.
    """

    out = []
    for index, task in chunk:
        try:
            out.append((index, fn(task), None))
        except Exception as exc:  # noqa: BLE001 — failure isolation
            out.append((index, None, f"{type(exc).__name__}: {exc}"))
    return out


def execute_indexed(
    fn: Callable,
    tasks: Sequence[object],
    workers: Optional[int] = None,
) -> List[Tuple[object, Optional[str]]]:
    """Run ``fn`` over ``tasks``; return ``(result, error)`` pairs in order.

    Runs in-process for ``workers in (None, 0, 1)`` and on a process
    pool of ``workers`` processes otherwise, so ``fn`` and every task
    must then be picklable.  Tasks travel in chunks, about four per
    worker, which amortise per-future overhead and still let
    stragglers rebalance; submission is throttled so at most
    ``4 × workers`` chunks are in flight at once.
    """

    tasks = list(tasks)
    indexed = list(enumerate(tasks))
    if workers is None or workers <= 1:
        return [(result, error) for _, result, error in _run_chunk(fn, indexed)]

    chunksize = max(1, len(tasks) // (workers * 4))
    chunks = [
        indexed[i:i + chunksize] for i in range(0, len(indexed), chunksize)
    ]
    # A forked worker inherits the parent's whole heap (every graph of
    # a grid); freezing it keeps the worker's generation-2 collections
    # to what its own tasks allocate.  Reference counting still frees
    # everything, and workers live only as long as this call.
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(max_workers=workers, initializer=gc.freeze)
    results: List[Optional[Tuple[object, Optional[str]]]] = [None] * len(tasks)
    try:
        pending = set()
        backlog = workers * _IN_FLIGHT_PER_WORKER
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
    workers:
        In-process for ``None``, 0 or 1, otherwise a process pool of
        that size (see :func:`execute_indexed`).
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

    pooled = workers is not None and workers > 1

    started = time.perf_counter()
    outcomes = execute_indexed(_solve_task, tasks, workers=workers)
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
        backend=PROCESS if pooled else SERIAL,
        workers=workers if pooled else 1,
        elapsed=elapsed,
    )


__all__ = [
    "BatchItem",
    "BatchReport",
    "PROCESS",
    "SERIAL",
    "execute_indexed",
    "instance_fingerprint",
    "solve_many",
]
