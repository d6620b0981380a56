"""The algorithm registry behind :func:`repro.api.solve`.

Every solver the library ships — the paper's algorithms in
:mod:`repro.core` plus the MIS/matching baselines in :mod:`repro.mis`
and :mod:`repro.matching` — is described by one :class:`AlgorithmSpec`
and registered here at import time (see :mod:`repro.api.algorithms`).
The CLI, the experiment adapters and the examples all dispatch through
this table, so adding an algorithm to the library is one
``@algorithm(...)`` entry, not new plumbing in every consumer.

Every entry has exactly one runner, ``AlgorithmSpec.run_iter``: a
generator ``run_iter(instance, **options)`` that yields
:class:`~repro.api.Checkpoint` objects and returns the final
:class:`~repro.api.SolveReport`.  ``@algorithm`` accepts either form
of runner and decides the capability from it:

* a **generator function** is a *phased* runner and is registered
  as is (``anytime == "phases"``);
* a **plain function** ``run(instance, **options) -> SolveReport`` is
  *coarse*: the decorator lifts it into a begin/end generator that
  runs it once on a budget-stripped instance (``anytime ==
  "coarse"``).
"""

from __future__ import annotations

import functools
import inspect
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Tuple

from ..errors import InvalidInstance, ReproError
from .anytime import Checkpoint
from .instance import CONGEST, LOCAL, Instance


class UnknownAlgorithm(ReproError, KeyError):
    """Lookup of an algorithm name that is not registered."""

    # KeyError.__str__ repr-quotes the message; keep it human-readable.
    __str__ = Exception.__str__


class UnsupportedModel(InvalidInstance):
    """A known algorithm was asked to run in a model it does not support."""


@dataclass(frozen=True)
class AlgorithmSpec:
    """Declarative description of one registered solver.

    ``name`` is the unique registry key (``"maxis-layers"``); ``cli``
    is the short name exposed by ``python -m repro <problem>
    --algorithm`` (``None`` keeps an algorithm out of the CLI, e.g.
    when it needs a bipartite instance).  ``bound`` maps an
    :class:`~repro.api.instance.Instance` to the numeric approximation
    factor guaranteed on it (e.g. ``lambda inst: 2 + inst.eps``), or is
    ``None`` for heuristics.

    ``run_iter`` is the algorithm's one runner: a generator
    ``run_iter(instance, **options)`` yielding
    :class:`~repro.api.Checkpoint` objects at the algorithm's phase
    boundaries and returning the final report (or ``None`` when a
    round budget interrupted it cooperatively), so every registry
    entry is interruptible.

    ``run_iter`` also defines the algorithm's *resume* capability: a
    phased runner must accept ``resume_state=`` and continue a
    truncated run bit-for-bit from a captured checkpoint (the
    registry-wide contract test in ``tests/api/test_resume.py`` fails
    any phased entry whose resume path does not reproduce the uncut
    run) — :attr:`anytime` reports ``"phases"`` for these.  Runners
    lifted from a plain function report ``"coarse"``: they are still
    resumable via :func:`repro.api.resume`, but only from the fresh
    begin state (a warm start is a deterministic re-run from scratch).
    """

    name: str
    problem: str                       # "maxis" | "matching" | "mis"
    paper: str                         # paper anchor, e.g. "Theorem 3.2"
    guarantee: str                     # human-readable guarantee
    run_iter: Callable
    cli: Optional[str] = None
    bound: Optional[Callable[[Instance], float]] = None
    weighted: bool = False             # objective is a weight, not a count
    deterministic: bool = False
    uses_eps: bool = False
    requires_bipartite: bool = False
    models: Tuple[str, ...] = (CONGEST, LOCAL)
    tags: Tuple[str, ...] = ()
    array_kernel: bool = False         # has a vectorized round kernel

    @property
    def backends(self) -> Tuple[str, ...]:
        """Simulator backends this algorithm executes natively on.

        Every algorithm runs on the object backend; entries with
        :attr:`array_kernel` also run vectorized under
        ``Instance(backend="array")`` (the rest fall back
        transparently).
        """

        return ("object", "array") if self.array_kernel else ("object",)

    @property
    def anytime(self) -> str:
        """``"phases"`` for real per-phase checkpointing (and per-phase
        resume), ``"coarse"`` for a runner lifted from a plain function
        (interruptible, restart-only resume)."""

        written = inspect.unwrap(self.run_iter)
        return "phases" if inspect.isgeneratorfunction(written) else "coarse"

    def resolve_model(self, instance: Instance) -> str:
        """The model this run executes in (instance override or native)."""

        if instance.model is None:
            return self.models[0]
        if instance.model not in self.models:
            raise UnsupportedModel(
                f"algorithm {self.name!r} does not run in the "
                f"{instance.model} model (supported: {self.models})"
            )
        return instance.model

    def describe(self) -> Dict[str, object]:
        """JSON-able registry entry (``python -m repro info --json``)."""

        return {
            "name": self.name,
            "problem": self.problem,
            "cli": self.cli,
            "paper": self.paper,
            "guarantee": self.guarantee,
            "weighted": self.weighted,
            "deterministic": self.deterministic,
            "uses_eps": self.uses_eps,
            "requires_bipartite": self.requires_bipartite,
            "models": list(self.models),
            "tags": list(self.tags),
            # simulator backends with native support; algorithms
            # without an array kernel fall back to "object" silently.
            "backends": list(self.backends),
            # anytime capability: "phases" = real per-phase checkpoints,
            # "coarse" = lifted plain runner, begin/end only (still
            # interruptible).
            "anytime": self.anytime,
            # resume capability mirrors it: "phases" = warm-start from
            # any captured checkpoint (bit-for-bit continuation),
            # "coarse" = resumable only as a deterministic re-run from
            # the fresh begin state.
            "resume": self.anytime,
        }


_ALGORITHMS: Dict[str, AlgorithmSpec] = {}


def register_algorithm(spec: AlgorithmSpec) -> AlgorithmSpec:
    """Register ``spec`` under its name; duplicate names are an error."""
    if spec.name in _ALGORITHMS:
        raise ValueError(f"algorithm {spec.name!r} already registered")
    _ALGORITHMS[spec.name] = spec
    return spec


def _coarse_runner(run: Callable) -> Callable:
    """Lift a plain ``run(instance, **options) -> SolveReport`` into a
    begin/end checkpoint generator.

    The plain function executes on a budget-stripped instance (a
    coarse algorithm cannot stop mid-run); the facade then enforces the
    budget on the two emitted checkpoints, so an over-budget run
    truncates to the empty initial state instead of raising.  The only
    state such a stream exposes is the fresh begin marker, so a
    ``resume_state`` has nothing to continue and the run starts over.
    """

    @functools.wraps(run)
    def phases(instance: Instance, resume_state=None, **options):
        yield Checkpoint(phase="begin", solution=frozenset(), objective=0,
                         rounds=0)
        stripped = (instance if instance.max_rounds is None
                    else replace(instance, max_rounds=None))
        report = run(stripped, **options)
        report.instance = instance
        yield Checkpoint(
            phase="end",
            solution=report.solution,
            objective=report.objective,
            rounds=report.rounds,
            bits=report.metrics.bits if report.metrics is not None else 0,
            final=True,
            extras=dict(report.extras),
        )
        return report

    return phases


def algorithm(**spec_fields) -> Callable[[Callable], Callable]:
    """Decorator form: registers the wrapped runner, returns it unchanged.

    A generator function is registered as the phased runner; a plain
    function is lifted into the coarse begin/end runner first.
    """

    def deco(run: Callable) -> Callable:
        runner = (run if inspect.isgeneratorfunction(run)
                  else _coarse_runner(run))
        register_algorithm(AlgorithmSpec(run_iter=runner, **spec_fields))
        return run

    return deco


def get_algorithm(name: str, problem: Optional[str] = None) -> AlgorithmSpec:
    """Look up a spec by registry name, or by CLI name within ``problem``."""

    if name in _ALGORITHMS:
        spec = _ALGORITHMS[name]
        if problem is None or spec.problem == problem:
            return spec
    if problem is not None:
        for spec in _ALGORITHMS.values():
            if spec.problem == problem and spec.cli == name:
                return spec
    known = ", ".join(sorted(_ALGORITHMS)) or "<none>"
    scope = f" for problem {problem!r}" if problem else ""
    raise UnknownAlgorithm(
        f"unknown algorithm {name!r}{scope} (registered: {known})"
    )


def list_algorithms(problem: Optional[str] = None) -> List[AlgorithmSpec]:
    """All registered specs sorted by name, optionally per problem."""
    return [
        _ALGORITHMS[name]
        for name in sorted(_ALGORITHMS)
        if problem is None or _ALGORITHMS[name].problem == problem
    ]


def cli_names(problem: str) -> Tuple[str, ...]:
    """CLI ``--algorithm`` choices for one problem, registry-ordered."""

    return tuple(
        spec.cli for spec in list_algorithms(problem) if spec.cli is not None
    )


def registry_as_json() -> List[Dict[str, object]]:
    """The whole registry as JSON-able dicts, sorted by name."""

    return [spec.describe() for spec in list_algorithms()]


__all__ = [
    "AlgorithmSpec",
    "UnknownAlgorithm",
    "UnsupportedModel",
    "algorithm",
    "cli_names",
    "get_algorithm",
    "list_algorithms",
    "register_algorithm",
    "registry_as_json",
]
