"""Deterministic experiment runner (serial or process-parallel).

The :class:`Runner` is the single execution engine behind every
benchmark: the ``python -m repro bench`` CLI, the ``benchmarks/``
pytest suite and the CI smoke gate all funnel through
:meth:`Runner.run`.  For each section of an
:class:`~repro.experiments.spec.ExperimentSpec` it

1. expands the section's ``(cell, seed)`` grid into an ordered trial
   plan (each entry carries the cell's graph spec, parameters and
   trial seed),
2. executes the plan — serially with the cell's graph materialized
   once per seed sweep, or fanned across a process pool via the
   shared batch engine (:func:`repro.api.batch.execute_indexed`) when
   ``workers > 1``, each worker rebuilding its trial's graph from the
   (deterministic) spec,
3. collects the measurement's measures dict plus an optional
   :class:`~repro.congest.network.NetworkMetrics` snapshot per trial,
   merging results **in plan order** so the artifact is byte-identical
   at any worker count,
4. reduces trials to table rows and evaluates the section's checks,
   recording pass/fail instead of aborting.

The assembled artifact follows the versioned schema documented in
:mod:`~repro.experiments.artifact`.  It never carries wall-clock
data; speed is measured by ``perfbench/``.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from .artifact import SCHEMA, metrics_snapshot
from .registry import build_graph, get_measurement
from .spec import ExperimentSpec, Section


def _sanitize(value):
    """Make a measures value JSON-safe: non-finite floats (an infinite
    approximation ratio from an empty solution, a NaN statistic) become
    strings so the artifact still serializes — and any check comparing
    against them records a failure instead of crashing the run."""

    if isinstance(value, float):
        return value if value == value and abs(value) != float("inf") \
            else repr(value)
    if isinstance(value, dict):
        return {key: _sanitize(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_sanitize(item) for item in value]
    return value


def _default_reduce(trials: List[dict]) -> List[dict]:
    rows = []
    for trial in trials:
        row = dict(trial["params"])
        row["seed"] = trial["seed"]
        row.update(trial["measures"])
        rows.append(row)
    return rows


#: Per-worker memo of the most recently built graph, keyed by the
#: spec's repr.  Chunks preserve plan order, so a cell's seed sweep
#: arrives at one worker as adjacent tasks and the graph is built once
#: per cell — the same once-per-sweep reuse the serial path gets —
#: instead of once per trial.  One entry only: no growth, and no
#: sharing beyond what the serial path's per-cell cache already does.
_LAST_GRAPH: tuple = (None, None)


def _run_trial_task(task: tuple) -> tuple:
    """Worker body for one ``(cell, seed)`` trial.

    Module-level (picklable) so the process backend can ship it.  The
    task carries only plain data — the measurement *name*, the graph
    *spec* dict and the parameter dict — and the worker rebuilds the
    graph through the registered (deterministic) family builder, so a
    rebuilt graph is identical to the serial path's cached one.
    Returns sanitized measures plus the JSON metrics snapshot, i.e.
    exactly what lands in the trial record.
    """

    global _LAST_GRAPH
    measurement_name, graph_spec, params, trial_seed = task
    fn = get_measurement(measurement_name)
    if graph_spec is None:
        graph = None
    else:
        key = repr(graph_spec)
        cached_key, cached_graph = _LAST_GRAPH
        if key == cached_key:
            graph = cached_graph
        else:
            graph = build_graph(graph_spec)
            _LAST_GRAPH = (key, graph)
    measures, metrics = fn(graph, trial_seed, **params)
    return _sanitize(measures), metrics_snapshot(metrics)


class Runner:
    """Executes one :class:`ExperimentSpec` and assembles its artifact.

    Parameters
    ----------
    spec:
        The experiment to run.
    workers:
        ``None``/``0``/``1`` runs trials serially (the historical
        path); ``N > 1`` fans each section's trial plan across ``N``
        workers of the shared batch engine.  Artifacts are
        **byte-identical** at any worker count: trials are merged in
        plan (spec) order.
    """

    def __init__(self, spec: ExperimentSpec,
                 workers: Optional[int] = None):
        self.spec = spec
        self.workers = int(workers) if workers else 0
        #: Pool shared across sections during run(); standalone
        #: run_section() calls fall back to a per-call pool.
        self._pool = None

    # ------------------------------------------------------------------
    def _section_plan(self, section: Section) -> List[dict]:
        """Expand a section into its ordered ``(cell, seed)`` trial plan.

        Per-cell overrides: a cell may pin its own seed sweep (for
        benches whose graph seed and algorithm seed co-vary), swap the
        measurement (heterogeneous summary tables), or carry
        display-only labels that are recorded but not passed to the
        measurement.
        """

        plan: List[dict] = []
        for cell_index, cell in enumerate(section.grid):
            cell = dict(cell)
            graph_spec = cell.pop("graph", None)
            cell_seeds = cell.pop("seeds", section.seeds)
            cell_measurement = cell.pop("measurement", None)
            label = dict(cell.pop("label", {}))
            measurement = (section.measurement if cell_measurement is None
                           else cell_measurement)
            for seed in cell_seeds:
                plan.append({
                    "cell": cell_index,
                    "graph": graph_spec,
                    "measurement": measurement,
                    "params": cell,
                    "label": label,
                    "seed": seed,
                })
        return plan

    @staticmethod
    def _task(entry: dict) -> tuple:
        return (entry["measurement"], entry["graph"], entry["params"],
                entry["seed"])

    def _execute_serial(self, plan: List[dict]) -> List[tuple]:
        """Run the plan in-process through the same trial body the
        workers execute (adjacent same-cell trials reuse the built
        graph via the trial task's memo), so the serial and parallel
        paths cannot drift apart."""

        return [_run_trial_task(self._task(entry)) for entry in plan]

    def _execute_parallel(self, plan: List[dict]) -> List[tuple]:
        """Fan the plan across the shared batch engine; results come
        back in plan order, so artifacts match the serial path byte for
        byte.  A failing trial aborts the section, like the serial
        path — though the original exception, having crossed a process
        boundary as a string, is re-raised as a RuntimeError naming the
        failed (cell, seed) and the worker's error text."""

        from ..api.batch import execute_indexed

        outcomes = execute_indexed(
            _run_trial_task, [self._task(entry) for entry in plan],
            executor=self._pool if self._pool is not None else "process",
            workers=self.workers,
        )
        results: List[tuple] = []
        for entry, (result, error) in zip(plan, outcomes):
            if error is not None:
                raise RuntimeError(
                    f"trial (cell={entry['cell']}, "
                    f"seed={entry['seed']}) failed: {error}"
                )
            results.append(result)
        return results

    def _execute(self, plan: List[dict]) -> List[tuple]:
        if self.workers > 1:
            return self._execute_parallel(plan)
        return self._execute_serial(plan)

    # ------------------------------------------------------------------
    def run_section(self, section) -> Dict:
        """Run one section (by name or :class:`Section`) to a record."""

        if isinstance(section, str):
            section = self.spec.section(section)
        plan = self._section_plan(section)
        results = self._execute(plan)
        trials = [
            {
                "cell": entry["cell"],
                "graph": entry["graph"],
                "params": {**entry["label"], **entry["params"]},
                "seed": entry["seed"],
                "measures": measures,
                "metrics": metrics,
            }
            for entry, (measures, metrics) in zip(plan, results)
        ]
        reduce = section.reduce or _default_reduce
        rows = reduce(trials)
        checks = []
        for check in section.checks:
            try:
                check.fn(rows)
            except AssertionError as exc:
                checks.append({"name": check.name, "passed": False,
                               "detail": str(exc)})
            except Exception as exc:  # record-not-abort contract
                checks.append({
                    "name": check.name,
                    "passed": False,
                    "detail": f"{type(exc).__name__}: {exc}",
                })
            else:
                checks.append({"name": check.name, "passed": True,
                               "detail": check.description})
        return {
            "name": section.name,
            "title": section.title,
            "measurement": section.measurement,
            "render": section.render,
            "render_params": dict(section.render_params),
            "trials": trials,
            "rows": rows,
            "checks": checks,
        }

    # ------------------------------------------------------------------
    def run(self, sections: Optional[Iterable[str]] = None) -> Dict:
        """Run the experiment (optionally a subset of section names)."""

        wanted = None if sections is None else list(sections)
        selected = (self.spec.sections if wanted is None
                    else [self.spec.section(name) for name in wanted])
        try:
            if self.workers > 1:
                # One pool for the whole experiment: pool spin-up is
                # paid once, not once per section.
                from concurrent.futures import ProcessPoolExecutor

                self._pool = ProcessPoolExecutor(max_workers=self.workers)
            records = [self.run_section(section) for section in selected]
        finally:
            if self._pool is not None:
                self._pool.shutdown(wait=True)
                self._pool = None
            # Drop the serial path's graph memo so a long-lived process
            # does not retain the last workload graph.
            global _LAST_GRAPH
            _LAST_GRAPH = (None, None)
        trials = sum(len(r["trials"]) for r in records)
        checks_total = sum(len(r["checks"]) for r in records)
        checks_failed = sum(
            1 for r in records for c in r["checks"] if not c["passed"]
        )
        return {
            "schema": SCHEMA,
            "experiment": self.spec.name,
            "title": self.spec.title,
            "description": self.spec.description,
            "sections": records,
            "summary": {
                "sections": len(records),
                "trials": trials,
                "checks_total": checks_total,
                "checks_failed": checks_failed,
                "passed": checks_failed == 0,
            },
        }


def run_experiment(spec: ExperimentSpec,
                   sections: Optional[Iterable[str]] = None,
                   workers: Optional[int] = None) -> Dict:
    """Convenience wrapper: ``Runner(spec, ...).run(sections)``."""

    return Runner(spec, workers=workers).run(sections)
