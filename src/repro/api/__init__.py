"""``repro.api`` — the unified solver facade.

One call runs any of the library's MaxIS / matching / MIS algorithms
and returns one report type::

    from repro.api import Instance, solve

    inst = Instance(graph, seed=3, eps=0.5)
    report = solve(inst, "matching-fast2eps")
    print(report.size, report.rounds, report.bound)
    print(report.compare())          # exact optimum + achieved ratio

The moving parts:

* :class:`Instance` — graph + model (LOCAL/CONGEST) + ε + seed +
  round/bandwidth budgets, the canonical problem description;
* :class:`AlgorithmSpec` — one registry entry per algorithm (name,
  problem kind, paper anchor, guarantee, capability flags, runner),
  auto-populated from :mod:`repro.core`, :mod:`repro.mis` and
  :mod:`repro.matching` by :mod:`repro.api.algorithms`;
* :func:`solve` — the facade: resolves the spec, pins the model, runs,
  certifies the solution; with ``Instance.max_rounds`` set it enforces
  the budget and returns a ``status="truncated"`` report (best valid
  partial solution) instead of raising;
* :func:`solve_iter` — the anytime primitive under ``solve``: a
  generator yielding :class:`Checkpoint` objects (phase label, valid
  partial solution, objective, rounds/bits consumed) at the
  algorithm's phase boundaries and returning the final report;
* :func:`resume` / :func:`resume_iter` — the warm-start half of the
  anytime protocol: continue a truncated run from the JSON-safe
  ``resume_state`` its report/checkpoint carries (or from
  ``solve(..., warm_start=report)``), with round/traffic accounting
  continued — at a fixed seed the continuation is bit-for-bit the run
  that was never cut;
* :func:`solve_many` — the batch engine: fan an instance grid (×
  algorithms) across a process/thread pool with stable fingerprints,
  per-task failure isolation and a :class:`BatchReport` aggregate
  (see :mod:`repro.api.batch`);
* :class:`SolveReport` — solution set + objective + validity
  certificate + approximation-bound check + round ledger + simulator
  metrics, replacing the per-algorithm result zoo at the API boundary.

``python -m repro info --json`` emits :func:`registry_as_json`, and
``python -m repro maxis/matching`` are thin views over this registry.
"""

from .anytime import COMPLETE, STATUSES, TRUNCATED, Checkpoint
from .batch import (
    BatchItem,
    BatchReport,
    execute_indexed,
    instance_fingerprint,
    solve_many,
)
from ..errors import NotResumable, ResumeError, ResumeMismatch
from .facade import RESUME_VERSION, resume, resume_iter, solve, solve_iter
from .instance import CONGEST, LOCAL, MODELS, MPC, Instance, random_instance
from .persist import (
    RESUME_FILE_FORMAT,
    instance_from_workload,
    load_envelope,
    resume_envelope,
    resume_envelope_report,
    workload_recipe,
    write_envelope,
)
from .serialize import from_jsonable, to_jsonable
from .registry import (
    AlgorithmSpec,
    UnknownAlgorithm,
    UnsupportedModel,
    algorithm,
    cli_names,
    get_algorithm,
    list_algorithms,
    register_algorithm,
    registry_as_json,
)
from .report import SolveReport

from . import algorithms  # noqa: F401  (registers the specs on import)

__all__ = [
    "AlgorithmSpec",
    "BatchItem",
    "BatchReport",
    "CONGEST",
    "COMPLETE",
    "Checkpoint",
    "Instance",
    "LOCAL",
    "MODELS",
    "MPC",
    "NotResumable",
    "RESUME_FILE_FORMAT",
    "RESUME_VERSION",
    "ResumeError",
    "ResumeMismatch",
    "STATUSES",
    "SolveReport",
    "TRUNCATED",
    "UnknownAlgorithm",
    "UnsupportedModel",
    "algorithm",
    "cli_names",
    "execute_indexed",
    "from_jsonable",
    "get_algorithm",
    "instance_fingerprint",
    "instance_from_workload",
    "list_algorithms",
    "load_envelope",
    "random_instance",
    "register_algorithm",
    "registry_as_json",
    "resume",
    "resume_envelope",
    "resume_envelope_report",
    "resume_iter",
    "solve",
    "solve_iter",
    "solve_many",
    "to_jsonable",
    "workload_recipe",
    "write_envelope",
]
