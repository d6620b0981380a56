"""Experiment registry, runner and versioned benchmark artifacts.

This package is the reproduction's experiment subsystem: every
benchmark — the regenerated Table 1, the figures, the ablations and
the CI smoke gate — is a declarative
:class:`~repro.experiments.spec.ExperimentSpec` registered in
:mod:`~repro.experiments.catalog` and executed by the shared
:class:`~repro.experiments.runner.Runner`.  The three consumers are:

* ``python -m repro bench <experiment>`` — the CLI entry point; lists,
  runs and validates experiments and writes artifacts;
* ``benchmarks/bench_*.py`` — thin pytest declarations (one line per
  experiment) that run the same specs and fail on any failed check;
* CI — the smoke-bench job runs ``python -m repro bench smoke --json -``
  and fails on schema violations or regressions past recorded bounds.

Measurement adapters sit on the :mod:`repro.api` facade: every adapter
that *runs* an algorithm dispatches through :func:`repro.api.solve`
against the algorithm registry, so a new algorithm needs one registry
entry plus (optionally) one small adapter that maps its
:class:`~repro.api.SolveReport` onto the measure names a spec wants —
no bespoke seed/ε/oracle plumbing (see
:mod:`repro.experiments.measurements`).

Artifact schema (``repro-bench/1``)
-----------------------------------
Running an experiment produces a single JSON document, canonically
written to ``BENCH_<name>.json``.  The top level carries ``schema``
(the version tag consumers must verify), ``experiment``/``title``/
``description`` metadata, a ``sections`` list and a ``summary``.  Each
section records its ``trials`` (one record per ``(grid cell, seed)``
pair: the cell's graph spec and parameters, the seed, the
measurement's ``measures`` dict and an optional ``NetworkMetrics``
snapshot), the reduced table ``rows`` consumed by
:func:`repro.analysis.render_artifact`, and the outcome of every
``check`` — the paper's shape claims, recorded as pass/fail instead of
aborting the run.  The ``summary`` block repeats the section/trial/
check counts so a truncated artifact cannot validate.

Determinism: the same spec and seeds produce a **byte-identical**
artifact (sorted keys, no timestamps, no host data, no wall-clock) —
this is what lets CI diff artifacts across commits.  The contract
holds for every registered experiment and extends to parallel
execution: ``--workers N`` fans trials across the shared batch engine
but merges them in spec order, so the artifact is byte-identical at
any worker count (CI diffs a ``--workers 2`` smoke run against the
serial one).  Wall-clock speed is measured only by ``perfbench/``.

How CI consumes it
------------------
The smoke-bench job runs the tiny ``smoke`` experiment, writes the
artifact, and gates on three things: the runner's exit status (any
failed check — e.g. an approximation ratio regressing past the
recorded bounds in ``catalog.SMOKE_BOUNDS``, or the pinned simulator
message/bit counters drifting — fails the job), the structural
validator (:func:`~repro.experiments.artifact.validate_artifact`), and
the determinism contract (two runs must serialize identically).
"""

from .artifact import (
    SCHEMA,
    artifact_path,
    artifact_to_json,
    load_artifact,
    metrics_snapshot,
    validate_artifact,
    write_artifact,
)
from .diff import diff_artifacts, render_diff
from .registry import (
    UnknownExperiment,
    build_graph,
    get_experiment,
    get_measurement,
    list_experiments,
    register_experiment,
    register_graph_family,
    register_measurement,
)
from .runner import Runner, run_experiment
from .spec import Check, ExperimentSpec, Section

__all__ = [
    "SCHEMA",
    "Check",
    "ExperimentSpec",
    "Runner",
    "Section",
    "UnknownExperiment",
    "artifact_path",
    "artifact_to_json",
    "build_graph",
    "diff_artifacts",
    "get_experiment",
    "get_measurement",
    "list_experiments",
    "load_artifact",
    "metrics_snapshot",
    "register_experiment",
    "register_graph_family",
    "register_measurement",
    "render_diff",
    "run_experiment",
    "validate_artifact",
    "write_artifact",
]
