"""The anytime phase protocol every phase generator speaks.

Each of the paper's algorithms runs in phases — Algorithm 2 in
selection phases, Algorithm 3 in local-ratio sweeps, Theorem B.12 in
bipartition stages, Lemma B.14 in repetitions — and :mod:`repro.core`
runs each one as a *phase generator*: it yields one
:class:`Checkpoint` per phase boundary and returns its result
(``StopIteration.value``), or ``None`` when a ``max_rounds`` budget
stopped it cooperatively.  Every phase generator in :mod:`repro.core`
and :mod:`repro.mpc` yields this one type, and each checkpoint carries
everything the anytime driver in :mod:`repro.api` needs — the phase
label, the valid partial solution, its objective, the rounds and bits
consumed, the final flag, algorithm extras and the raw resume state —
so the registry runners forward the stream unchanged.

Phase labels are ``"<label>-<i>"``, numbered by position in the stream
(:func:`phase_names`).  Simulator-backed generators open their stream
with an ``"init"`` checkpoint, or ``"resume"`` on a warm start
(:func:`opening_checkpoint`), and number their phases from 1; the
ledger-driven generators number theirs from 0, starting with the
initial state.  The labels and resume states are persisted inside
resume envelopes, so they are part of the on-disk contract.

:func:`stepper_checkpoints` is the loop the simulator-backed
generators share: it drives
:meth:`~repro.congest.SynchronousNetwork.run_stepwise` and folds the
``newly_halted`` nodes of each snapshot into the partial solution.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, Optional, Tuple


@dataclass(frozen=True)
class Checkpoint:
    """One phase boundary of an anytime execution.

    ``solution`` is the partial solution at this boundary — a frozenset
    of nodes (MaxIS/MIS) or of 2-node frozensets (matching) — and
    ``valid`` records whether it satisfies the problem's feasibility
    constraints (every checkpoint the built-in runners emit is valid;
    the flag exists so custom runners can stream infeasible
    intermediate states without the driver adopting them).
    ``rounds`` / ``bits`` are the cumulative communication consumed to
    reach this state.  ``final`` is a best-effort hint: it is set when
    the runner can *tell at emission time* that no further checkpoint
    follows (the coarse begin/end adapter's ``end``, the simulator's
    last snapshot); runners whose phase count is data-dependent (the
    (1+ε) matchers' phase loops) end their stream without a
    final-flagged checkpoint, so the authoritative end-of-stream
    signal is always ``StopIteration``.  ``extras`` carries
    algorithm-specific state (deactivated nodes, stage counters, …)
    that a truncated report preserves.

    ``resume_state``, when present, is a self-describing JSON-safe
    warm-start payload (version, algorithm name, budget-agnostic
    instance fingerprint, consumed rounds, and the algorithm's state
    at this boundary): feed it — or the checkpoint carrying it — to
    :func:`repro.api.resume` to continue the run as if it had never
    stopped.  Runners attach state when the instance carries a round
    budget (an unbudgeted run cannot be cut, so the common path pays
    nothing extra); a :func:`~repro.api.solve_iter` stream's first
    checkpoint always carries at least the fresh-start marker.  An
    unbudgeted :func:`~repro.api.solve` lets no checkpoint out, so it
    builds no envelope at all (not even that marker's fingerprint).
    Phase generators attach the *raw* algorithm state; the facade
    wraps it into the envelope.
    """

    phase: str
    solution: frozenset
    objective: int
    rounds: int
    bits: int = 0
    valid: bool = True
    final: bool = False
    extras: Dict[str, Any] = field(default_factory=dict)
    resume_state: Optional[Dict[str, Any]] = None


def phase_names(label: str, start: int = 0) -> Iterator[str]:
    """The numbered phase labels of one stream: ``label-start``, …"""

    return (f"{label}-{index}" for index in itertools.count(start))


def opening_checkpoint(resume: Optional[dict], solution, objective: int,
                       metrics=None, extras=None) -> Checkpoint:
    """A simulator-backed stream's first checkpoint.

    ``"init"`` at round 0 on a fresh run; on a warm start ``"resume"``
    at the payload's round count, carrying the incoming state (so a
    stream that is cut again before its first phase stays resumable).
    ``metrics`` is the simulator's live counters, or ``None`` for
    streams that report no bits; a resumed stream reports the bits its
    captured simulator state had consumed.
    """

    extras = {} if extras is None else extras
    if resume is None:
        return Checkpoint(phase="init", solution=frozenset(solution),
                          objective=objective, rounds=0, extras=extras)
    bits = (resume["sim"]["metrics"]["bits"] if metrics is not None
            else 0)
    return Checkpoint(phase="resume", solution=frozenset(solution),
                      objective=objective, rounds=resume["rounds"],
                      bits=bits, extras=extras, resume_state=resume)


def stepper_checkpoints(
    stepper,
    label: str,
    fold: Callable[[tuple], Tuple[frozenset, int]],
    make_state: Callable[[int, int, dict], Optional[dict]],
    metrics=None,
    rounds_offset: int = 0,
    extras: Optional[Callable[[], dict]] = None,
):
    """Yield one checkpoint per ``run_stepwise`` snapshot (phases
    ``label-1``, ``label-2``, …); return the
    :class:`~repro.congest.RunResult`.

    ``fold(newly_halted)`` absorbs the nodes that halted since the last
    snapshot into the caller's partial solution and returns the current
    ``(solution, objective)`` pair (solution as a frozenset).
    ``make_state(rounds, objective, sim_state)`` wraps the simulator's
    captured execution state into the algorithm's resume payload; it is
    only called for snapshots that carry one (the final snapshot of a
    capturing run).  ``metrics`` supplies each checkpoint's cumulative
    bits (``None``: reported as 0), ``extras()`` its extras, and
    ``rounds_offset`` shifts simulator rounds onto the algorithm's
    accounted scale (Algorithm 3 charges its coloring black box up
    front).
    """

    names = phase_names(label, start=1)
    while True:
        try:
            snapshot = next(stepper)
        except StopIteration as stop:
            return stop.value
        solution, objective = fold(snapshot.newly_halted)
        rounds = rounds_offset + snapshot.rounds
        state = None
        if snapshot.state is not None:
            state = make_state(rounds, objective, snapshot.state)
        yield Checkpoint(
            phase=next(names), solution=solution, objective=objective,
            rounds=rounds, bits=metrics.bits if metrics is not None else 0,
            final=snapshot.final,
            extras={} if extras is None else extras(),
            resume_state=state,
        )


__all__ = ["Checkpoint", "opening_checkpoint", "phase_names",
           "stepper_checkpoints"]
