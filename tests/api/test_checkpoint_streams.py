"""Golden pins for the checkpoint *streams* of every phased runner.

``test_facade_parity.py`` pins final results and ``test_resume.py``
pins the resume ≡ never-stopped contract; neither pins what a stream
looks like on its way there.  This suite does: for every phased
registry entry (plus ``model="mpc"`` for ``matching-proposal`` and
``maxis-greedy``) it records three streams —

* ``full``: the unbudgeted :func:`~repro.api.solve_iter` stream;
* ``budget``: the same instance with a mid-run ``max_rounds``;
* ``resume``: :func:`~repro.api.resume_iter` from the ``budget``
  run's resume payload after a ``json.dumps``/``loads`` round trip;

and pins, per checkpoint, ``(phase, rounds, objective, bits, final,
extras)`` plus a SHA-256 of its JSON resume envelope, and per stream
the final report's status, rounds, objective, solution digest, network
metric counters, ledger breakdown and resume-payload digest.  Because
every payload's bytes are pinned, a payload written by the recording
tree is byte-for-byte the one the ``resume`` stream starts from, so
the pins also cover "an old resume file still resumes to the same
report".

The golden file is ``checkpoint_streams.json`` next to this module.
It is the behaviour oracle for refactors of the phase protocol: a
change that moves any pinned value changes what users observe (phase
labels and envelopes are persisted by journals and resume files).
Re-record it with ``PYTHONPATH=src python
tests/api/test_checkpoint_streams.py``, and only for a deliberate
behaviour change.
"""

import hashlib
import json
import os
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from repro.api import (
    Instance,
    list_algorithms,
    resume_iter,
    solve_iter,
)
from repro.api.serialize import to_jsonable
from repro.congest import BACKEND_ENV, BACKENDS, resolve_backend
from repro.graphs import (
    assign_edge_weights,
    assign_node_weights,
    gnp_graph,
    random_bipartite_graph,
)

SEED = 7
EPS = 0.5
GOLDEN = Path(__file__).with_name("checkpoint_streams.json")

#: The non-default models pinned alongside every phased entry's native one.
MPC_CASES = (("matching-proposal", "mpc"), ("maxis-greedy", "mpc"))


def _graphs():
    general = gnp_graph(16, 0.25, seed=3)
    assign_node_weights(general, 32, seed=4)
    assign_edge_weights(general, 32, seed=5)
    bipartite = random_bipartite_graph(6, 6, 0.4, seed=6)
    assign_edge_weights(bipartite, 16, seed=7)
    return general, bipartite


def _cases():
    phased = [(spec.name, None) for spec in list_algorithms()
              if spec.anytime == "phases"]
    return sorted(phased + list(MPC_CASES), key=lambda c: (c[0], c[1] or ""))


def _case_id(name, model):
    return name if model is None else f"{name}@{model}"


def _instance(name, model):
    general, bipartite = _graphs()
    spec = next(s for s in list_algorithms() if s.name == name)
    graph = bipartite if spec.requires_bipartite else general
    return Instance(graph, seed=SEED, eps=EPS, model=model)


def _canonical(obj) -> str:
    return json.dumps(to_jsonable(obj), sort_keys=True,
                      separators=(",", ":"))


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _report_extras(extras) -> dict:
    """Per extras key: a digest of its JSON encoding, or the type name
    for live objects (traces, audits) that have no JSON form."""

    pinned = {}
    for key in sorted(extras):
        try:
            pinned[key] = _digest(_canonical(extras[key]))
        except TypeError:
            pinned[key] = type(extras[key]).__name__
    return pinned


def observe(stream):
    """Drain a checkpoint stream into ``(summary, envelopes, report)``.

    ``envelopes`` lists the SHA-256 of each checkpoint's JSON resume
    envelope (``None`` where it carries none) and, last, of the final
    report's ``resume_state``.  It is kept apart from the summary
    because envelope *bytes* are backend-specific (the array simulator
    captures in-flight messages in a different, equally valid order),
    while everything in the summary is pinned across backends.
    """

    checkpoints, envelopes = [], []
    while True:
        try:
            cp = next(stream)
        except StopIteration as stop:
            report = stop.value
            break
        checkpoints.append([
            cp.phase, cp.rounds, cp.objective, cp.bits, cp.final,
            _canonical({k: cp.extras[k] for k in sorted(cp.extras)}),
        ])
        envelopes.append(_envelope_digest(cp.resume_state))
    envelopes.append(_envelope_digest(report.resume_state))
    metrics = report.metrics
    summary = {
        "checkpoints": checkpoints,
        "report": {
            "status": report.status,
            "rounds": report.rounds,
            "objective": report.objective,
            "solution": _digest(_canonical(report.solution)),
            "metrics": None if metrics is None else {
                "rounds": metrics.rounds,
                "messages": metrics.messages,
                "bits": metrics.bits,
                "max_bits_per_edge_round": metrics.max_bits_per_edge_round,
                "violations": metrics.violations,
                "round_breakdown": dict(sorted(
                    metrics.round_breakdown.items())),
            },
            "ledger": report.ledger_counts(),
            "extras": _report_extras(report.extras),
        },
    }
    return summary, envelopes, report


def _envelope_digest(envelope):
    if envelope is None:
        return None
    return _digest(json.dumps(envelope, sort_keys=True,
                              separators=(",", ":")))


def run_case(name, model, max_rounds=None):
    """The three pinned streams of one case, as
    ``{stream: (summary, envelopes)}``, plus the budget used."""

    base = _instance(name, model)
    full, full_env, report = observe(solve_iter(base, name))
    if max_rounds is None:
        max_rounds = report.rounds // 2
    budget, budget_env, truncated = observe(
        solve_iter(replace(base, max_rounds=max_rounds), name))
    # Persist and reload the payload, as a resume file would.
    payload = json.loads(json.dumps(truncated.resume_state))
    resumed, resumed_env, _ = observe(resume_iter(payload, instance=base))
    streams = {"full": (full, full_env), "budget": (budget, budget_env),
               "resume": (resumed, resumed_env)}
    return max_rounds, streams


def record():
    """Record every case on both simulator backends."""

    golden = {_case_id(*case): {"envelopes": {}} for case in _cases()}
    saved = os.environ.get(BACKEND_ENV)
    try:
        for backend in BACKENDS:
            os.environ[BACKEND_ENV] = backend
            for name, model in _cases():
                entry = golden[_case_id(name, model)]
                max_rounds, streams = run_case(
                    name, model, entry.get("max_rounds"))
                entry["max_rounds"] = max_rounds
                for key, (summary, envelopes) in streams.items():
                    assert entry.setdefault(key, summary) == summary, (
                        f"{name}: backends disagree on the {key} stream")
                    entry["envelopes"].setdefault(backend, {})[key] = \
                        envelopes
    finally:
        if saved is None:
            os.environ.pop(BACKEND_ENV, None)
        else:
            os.environ[BACKEND_ENV] = saved
    return golden


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_every_phased_entry_is_pinned(golden):
    assert sorted(golden) == sorted(_case_id(*c) for c in _cases())


@pytest.mark.parametrize("name,model", _cases(),
                         ids=[_case_id(*c) for c in _cases()])
def test_checkpoint_streams_match_the_pins(golden, name, model):
    pinned = golden[_case_id(name, model)]
    envelopes = pinned["envelopes"][resolve_backend(None)]
    max_rounds, streams = run_case(name, model, pinned["max_rounds"])
    assert max_rounds == pinned["max_rounds"]
    for key, (summary, digests) in streams.items():
        assert summary == pinned[key], (name, model, key)
        assert digests == envelopes[key], (name, model, key, "envelopes")


def _dump(value, indent: int = 0) -> str:
    """Indented JSON with every list of scalars (a checkpoint row, an
    envelope digest list) kept on one line, so a re-recording diffs
    row by row."""

    pad = " " * (indent + 1)
    if isinstance(value, dict) and value:
        items = [f"{pad}{json.dumps(key)}: {_dump(value[key], indent + 1)}"
                 for key in sorted(value)]
        return "{\n" + ",\n".join(items) + "\n" + " " * indent + "}"
    if isinstance(value, list) and any(
            isinstance(item, (dict, list)) for item in value):
        items = [pad + _dump(item, indent + 1) for item in value]
        return "[\n" + ",\n".join(items) + "\n" + " " * indent + "]"
    return json.dumps(value)


if __name__ == "__main__":
    GOLDEN.write_text(_dump(record()) + "\n")
    sys.exit(0)
