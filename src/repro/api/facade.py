"""``solve`` / ``solve_iter`` — anytime entry points over the registry.

:func:`solve_iter` is the execution layer's primitive: a generator
yielding typed :class:`~repro.api.Checkpoint` objects at the running
algorithm's phase boundaries, enforcing ``Instance.max_rounds`` as it
goes, and returning the finalized :class:`~repro.api.SolveReport`.
:func:`solve` is a thin driver that drains it.

Budget semantics
----------------
``Instance.max_rounds`` is a hard communication budget.  A checkpoint
is admissible iff its cumulative ``rounds`` fit the budget; the driver
adopts the *last admissible valid* checkpoint.  Phase-structured
algorithms stop cooperatively — they never launch a phase (or simulate
a round, for simulator-backed ones) past the budget — so a truncated
run costs nothing extra.  Coarse algorithms (a plain runner lifted
into a begin/end pair, see :mod:`repro.api.registry`) cannot stop
mid-run; their budget is enforced on the emitted
checkpoints instead (the full run executes, then the report is
truncated to what the budget admitted).  Either way a budget-exhausted
``solve`` returns ``status="truncated"`` with a certified partial
solution instead of raising, and ``bound`` is ``None`` because the
approximation guarantee only holds for completed runs.  Bandwidth
budgets stay enforced by the CONGEST simulator itself
(``bandwidth_factor`` sizes the per-edge word; ``strict`` escalates
violations from metered to raised).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Dict, Iterator, Optional, Union

import networkx as nx

from ..errors import NotResumable, ResumeMismatch
from ..utils import drain
from .anytime import COMPLETE, TRUNCATED, Checkpoint
from .batch import instance_fingerprint
from .instance import Instance
from .registry import AlgorithmSpec, get_algorithm
from .report import SolveReport
from .serialize import from_jsonable, to_jsonable

#: Version stamp of the resume payload layout; bumped on breaking
#: changes so a stale persisted checkpoint fails loudly.
RESUME_VERSION = 1


def _truncated_report(instance: Instance,
                      checkpoint: Optional[Checkpoint]) -> SolveReport:
    """The report for a budget-exhausted run: the best valid checkpoint
    admitted by the budget (or the empty solution if none was)."""

    return SolveReport(
        algorithm="",
        problem="",
        instance=instance,
        solution=checkpoint.solution if checkpoint else frozenset(),
        objective=checkpoint.objective if checkpoint else 0,
        weighted=False,
        rounds=checkpoint.rounds if checkpoint else 0,
        model=instance.model or "",
        status=TRUNCATED,
        extras=dict(checkpoint.extras) if checkpoint else {},
    )


def _resume_fingerprint(instance: Instance) -> str:
    """The budget-agnostic instance identity a resume payload pins.

    ``max_rounds`` is deliberately excluded: the whole point of a warm
    start is to continue the *same* instance under a different (or no)
    budget, so the fingerprint covers everything else a solve depends
    on (graph structure, weights, model, ε, seed, bandwidth).
    """

    return instance_fingerprint(replace(instance, max_rounds=None))


def _finalize(spec: AlgorithmSpec, instance: Instance, model: str,
              report: SolveReport) -> SolveReport:
    """Stamp the registry identity and certify the (partial) solution."""

    report.algorithm = spec.name
    report.problem = spec.problem
    report.weighted = spec.weighted
    # The guarantee factor only applies to completed runs; a truncated
    # report carries the partial objective with no bound attached.
    report.bound = (spec.bound(instance)
                    if spec.bound is not None and report.status == COMPLETE
                    else None)
    report.model = model
    return report.certify()


def solve_iter(
    instance: Union[Instance, nx.Graph],
    algorithm: str,
    problem: Optional[str] = None,
    **options,
) -> Iterator[Checkpoint]:
    """Run ``algorithm`` as a checkpoint stream (the anytime protocol).

    Yields a :class:`~repro.api.Checkpoint` at every phase boundary the
    algorithm defines — each carrying a valid partial solution, the
    objective so far and the rounds/bits consumed — and **returns** the
    finalized :class:`~repro.api.SolveReport` (read it as
    ``StopIteration.value``, or let :func:`solve` drain the stream).
    With ``Instance.max_rounds`` set, the stream stops at the last
    checkpoint the budget admits and the returned report has
    ``status="truncated"``; abandoning the generator early (``close()``)
    stops the underlying run cooperatively.

    Every registered algorithm is iterable: phase-structured ones
    (``maxis-layers``, the (1+ε) matchers) emit real per-phase
    checkpoints, the rest a coarse begin/end pair.  A fixed-seed run
    that completes is bit-for-bit identical to draining the
    algorithm's phase generator in :mod:`repro.core` directly.

    Lookup and model resolution happen eagerly — an unknown algorithm
    or unsupported model raises here, at the call site, not at the
    first ``next()``.  To continue a truncated run, use
    :func:`resume_iter`.
    """

    spec, instance, model = _resolve(instance, algorithm, problem)
    return _solve_stream(spec, instance, model, **options)


def _resolve(instance: Union[Instance, nx.Graph], algorithm: str,
             problem: Optional[str]):
    """Look the algorithm up and pin the instance to its resolved model."""

    if isinstance(instance, nx.Graph):
        instance = Instance(instance)
    spec: AlgorithmSpec = get_algorithm(algorithm, problem=problem)
    model = spec.resolve_model(instance)
    if instance.model != model:
        instance = replace(instance, model=model)
    return spec, instance, model


def _envelope(name: str, fingerprint: str, checkpoint: Checkpoint,
              raw_state) -> Dict[str, Any]:
    """The self-describing JSON-safe resume payload of one raw state."""

    return {
        "version": RESUME_VERSION,
        "algorithm": name,
        "fingerprint": fingerprint,
        "phase": checkpoint.phase,
        "rounds": checkpoint.rounds,
        "state": to_jsonable(raw_state),
    }


def _solve_stream(spec: AlgorithmSpec, instance: Instance, model: str,
                  resume_state: Optional[Dict[str, Any]] = None,
                  fingerprint: Optional[str] = None,
                  envelope: bool = True,
                  **options) -> Iterator[Checkpoint]:
    """The generator half of :func:`solve_iter` (spec already resolved).

    Checkpoints leave the runners with *raw* (live-object) resume
    state attached; this driver wraps each into the self-describing
    JSON-safe envelope (version, algorithm, instance fingerprint,
    consumed rounds) so what consumers see — and what a truncated
    report carries — is directly persistable.  A stream's first
    checkpoint always gets at least the fresh-start marker, which is
    how coarse algorithms stay (trivially) resumable.

    ``fingerprint`` is the instance's budget-agnostic fingerprint when
    the caller already computed it (:func:`resume_iter` does, for its
    mismatch check); otherwise it is computed on first use.
    ``envelope=False`` is for a caller that never lets a checkpoint
    out (an unbudgeted :func:`solve`): the checkpoints keep their raw
    state, and the envelope — fingerprint included — is built once,
    from the last resumable state, only if the report ends truncated.
    Unbudgeted runners capture no state, so that state is the
    fresh-start marker and building it late changes nothing.
    """

    if resume_state is not None:
        phases = spec.run_iter(instance, resume_state=resume_state,
                               **options)
    else:
        phases = spec.run_iter(instance, **options)
    budget = instance.max_rounds
    best: Optional[Checkpoint] = None
    # The most recent valid admitted checkpoint with state, and that
    # state in raw form.
    resumable: Optional[tuple] = None
    report: Optional[SolveReport] = None
    first = True
    while True:
        try:
            checkpoint = next(phases)
        except StopIteration as stop:
            report = stop.value
            break
        raw_state = checkpoint.resume_state
        if raw_state is None and first:
            raw_state = {"fresh": True}
        first = False
        if raw_state is not None and envelope:
            if fingerprint is None:
                fingerprint = _resume_fingerprint(instance)
            checkpoint = replace(checkpoint, resume_state=_envelope(
                spec.name, fingerprint, checkpoint, raw_state))
        if budget is not None and checkpoint.rounds > budget:
            # Inadmissible state: close the runner (cooperative stop)
            # and fall back to the best admitted checkpoint.
            phases.close()
            break
        if checkpoint.valid:
            best = checkpoint
            if raw_state is not None:
                resumable = (checkpoint, raw_state)
        yield checkpoint
    if report is not None and budget is not None and report.rounds > budget:
        # A coarse run that finished over budget: keep only what the
        # budget admitted.
        report = None
    if report is None:
        report = _truncated_report(instance, best)
    if (report.status == TRUNCATED and report.resume_state is None
            and resumable is not None):
        # The warm-start payload of the most recent resumable state the
        # budget admitted: resuming from it replays the identical
        # stream, so the continuation matches the never-stopped run
        # even when that state precedes the adopted solution.
        checkpoint, raw_state = resumable
        if envelope:
            report.resume_state = checkpoint.resume_state
        else:
            report.resume_state = _envelope(
                spec.name, _resume_fingerprint(instance), checkpoint,
                raw_state)
    return _finalize(spec, instance, model, report)


def solve(
    instance: Union[Instance, nx.Graph],
    algorithm: str,
    problem: Optional[str] = None,
    **options,
) -> SolveReport:
    """Run ``algorithm`` on ``instance`` and return a :class:`SolveReport`.

    ``instance`` may be a bare graph, which is wrapped in a default
    :class:`Instance` (seed 0, ε = 0.5, native model) — convenient in
    notebooks; pass a real ``Instance`` for controlled runs.
    ``algorithm`` is a registry name (``"maxis-layers"``) or, together
    with ``problem``, a CLI short name (``"layers"``).  ``**options``
    forwards algorithm-specific knobs (``trace=``, ``audit=``, ``k=``,
    …) to the underlying implementation.

    ``solve`` is a thin driver over the checkpoint stream of
    :func:`solve_iter`: it drains the stream and returns the final
    report.  With no budget set, the run executes with the core
    implementation's defaults and seed handling, so fixed-seed results
    are bit-for-bit identical to calling :mod:`repro.core` directly;
    with ``Instance.max_rounds`` set, an exhausted budget yields
    ``status="truncated"`` and the best valid partial solution instead
    of raising.  The report's solution is validated (certified) before
    it is returned in either case.

    An unbudgeted ``solve`` builds no resume envelope: none of its
    checkpoints leaves the call and a complete report carries no
    ``resume_state``, so the instance fingerprint is never computed.
    Only a run that still ends truncated (an unbudgeted runner that
    hits its simulator cap) gets the envelope, built once at the end.
    :func:`solve_iter` streams, budgeted ``solve`` and resumed runs
    still stamp every stream's first checkpoint with the fresh marker.
    To continue a truncated run, use :func:`resume`.
    """

    spec, instance, model = _resolve(instance, algorithm, problem)
    return drain(_solve_stream(spec, instance, model,
                               envelope=instance.max_rounds is not None,
                               **options))


def _resume_payload(source) -> Dict[str, Any]:
    """Extract and validate the resume payload from a report /
    checkpoint / dict, raising the typed errors the protocol pins."""

    if isinstance(source, SolveReport):
        if source.resume_state is None:
            if source.status == COMPLETE:
                raise NotResumable(
                    'cannot resume a status="complete" report: the run '
                    "already finished and there is nothing left to do"
                )
            raise NotResumable(
                "this report carries no resume state (it predates the "
                "resume protocol or its checkpoint was not capturable)"
            )
        payload = source.resume_state
    elif isinstance(source, Checkpoint):
        if source.resume_state is None:
            raise NotResumable(
                "this checkpoint carries no resume state: state is "
                "captured on budgeted runs only, and simulator-backed "
                "algorithms attach it to the final checkpoint of the "
                "stream, not to interior ones — resume from the last "
                "state-carrying checkpoint or from the truncated report"
            )
        payload = source.resume_state
    elif isinstance(source, dict):
        payload = source
    else:
        raise NotResumable(
            f"cannot resume from a {type(source).__name__}; expected a "
            "SolveReport, Checkpoint, or resume payload dict"
        )
    required = ("version", "algorithm", "fingerprint", "rounds", "state")
    missing = [key for key in required if key not in payload]
    if missing:
        raise NotResumable(
            f"malformed resume payload: missing {missing}"
        )
    if payload["version"] != RESUME_VERSION:
        raise NotResumable(
            f"resume payload version {payload['version']!r} is not "
            f"supported (expected {RESUME_VERSION})"
        )
    return payload


def resume_iter(
    source,
    instance: Optional[Union[Instance, nx.Graph]] = None,
    algorithm: Optional[str] = None,
    problem: Optional[str] = None,
    allow=None,
    **options,
) -> Iterator[Checkpoint]:
    """Checkpoint-stream form of :func:`resume` (same validation)."""

    payload = _resume_payload(source)
    if instance is None and isinstance(source, SolveReport):
        instance = source.instance
    if instance is None:
        raise NotResumable(
            "resume needs the Instance: a bare checkpoint/payload does "
            "not carry one (pass instance=...)"
        )
    if isinstance(instance, nx.Graph):
        instance = Instance(instance)
    name = algorithm if algorithm is not None else payload["algorithm"]
    spec: AlgorithmSpec = get_algorithm(name, problem=problem)
    if spec.name != payload["algorithm"]:
        raise ResumeMismatch(
            f"checkpoint belongs to algorithm {payload['algorithm']!r}; "
            f"cannot warm-start {spec.name!r} from it"
        )
    model = spec.resolve_model(instance)
    if instance.model != model:
        instance = replace(instance, model=model)
    fingerprint = _resume_fingerprint(instance)
    reconciled = None
    if payload["fingerprint"] != fingerprint:
        if allow is None:
            raise ResumeMismatch(
                "instance fingerprint mismatch: the checkpoint was "
                "captured on a different instance (graph structure/"
                "weights, model, ε, seed or bandwidth differ); for a "
                "declared graph mutation pass "
                "allow=repro.dynamic.MutationCompat(batch)"
            )
        # Compatible-mutation relaxation: the policy validates the
        # declared delta against the payload's fingerprint and returns
        # state spliced to re-runnable form on the mutated instance
        # (raising ResumeMismatch itself when the delta does not check
        # out).  With matching fingerprints the policy is never
        # consulted — an empty batch is bit-identical to plain resume.
        reconciled = allow.reconcile(payload, instance, spec.name)
    if (instance.max_rounds is not None
            and instance.max_rounds < payload["rounds"]):
        raise NotResumable(
            f"round budget {instance.max_rounds} is below the "
            f"checkpoint's already-consumed {payload['rounds']} rounds"
        )
    state = (reconciled if reconciled is not None
             else from_jsonable(payload["state"]))
    if isinstance(state, dict) and state.get("fresh"):
        # The begin state (coarse adapters, and any stream's first
        # checkpoint): nothing was executed yet, so a warm start is a
        # deterministic fresh run under the new budget.
        return _solve_stream(spec, instance, model,
                             fingerprint=fingerprint, **options)
    return _solve_stream(spec, instance, model, resume_state=state,
                         fingerprint=fingerprint, **options)


def resume(
    source,
    instance: Optional[Union[Instance, nx.Graph]] = None,
    algorithm: Optional[str] = None,
    problem: Optional[str] = None,
    allow=None,
    **options,
) -> SolveReport:
    """Continue a truncated run from its last checkpoint (warm start).

    ``source`` is a truncated :class:`SolveReport` (whose
    ``resume_state`` the anytime driver filled in), a state-carrying
    :class:`Checkpoint` from :func:`solve_iter`, or the raw payload
    dict — e.g. recovered via ``json.loads`` from disk.  ``instance``
    defaults to the report's own instance; when resuming from a bare
    checkpoint or payload it must be passed explicitly and is verified
    against the payload's budget-agnostic fingerprint (a mismatched
    graph/weights/model/ε/seed raises
    :class:`~repro.errors.ResumeMismatch`; ``max_rounds`` may differ —
    that is the point).  ``instance.max_rounds``, if set, remains a
    *cumulative* budget: the continuation stops once total consumed
    rounds reach it (and may truncate again, yielding a new resumable
    report — multi-hop resume).

    The contract, pinned registry-wide by ``tests/api/test_resume.py``:
    **resume ≡ never-stopped**.  For every phase-structured algorithm,
    truncating at any budget and resuming with the remaining budget
    reproduces the unbounded run bit-for-bit — same solution, same
    round count, same ledger breakdown — because checkpoints capture
    the exact algorithm state (partial solution, per-node program
    state, RNG streams, in-flight messages, ledger/metric counters) at
    a phase boundary.  Round and traffic accounting *continue* across
    the hop rather than reset.  Algorithm options the original run
    resolved (a matcher's ``k``/``failure_delta``/``stages``, the
    line-graph engine's ``method``, …) are pinned inside the payload
    and win over omitted or re-passed ``**options``, so a forgotten
    keyword cannot silently splice two different parameterizations.
    Resuming a complete report raises
    :class:`~repro.errors.NotResumable`.

    ``allow`` relaxes the strict fingerprint check for *declared* graph
    mutations: pass ``repro.dynamic.MutationCompat(batch)`` to resume a
    checkpoint onto an instance that differs from the captured one by
    exactly that mutation batch.  The policy verifies the delta (the
    checkpoint's fingerprint must match the instance minus the batch,
    and re-applying the batch must reproduce the instance), invalidates
    only the mutation's influence region, and splices the captured
    simulator state back to re-runnable form; anything else still
    raises :class:`~repro.errors.ResumeMismatch`.
    """

    return drain(resume_iter(source, instance=instance,
                             algorithm=algorithm, problem=problem,
                             allow=allow, **options))


__all__ = ["RESUME_VERSION", "resume", "resume_iter", "solve",
           "solve_iter"]
