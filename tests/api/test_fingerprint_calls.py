"""How often the solve path computes the instance fingerprint.

The fingerprint (a SHA-256 over every node and edge) is the resume
identity, not part of the algorithm, so the facade computes it only
where a resume envelope actually leaves the call:

* an unbudgeted ``solve()`` builds no envelope and makes no call;
* a plain ``resume()`` computes it once, for the mismatch check, and
  hands the value to the stream it starts;
* one ``resolve_incremental`` step adds the base-graph check of
  :class:`~repro.dynamic.MutationCompat`, so two calls.

Calls are counted by patching the facade's binding of
``instance_fingerprint``, which ``_resume_fingerprint`` (and through it
``MutationCompat``) resolves at call time.
"""

from dataclasses import replace

import pytest

import repro.api.facade as facade
from repro.api import (
    TRUNCATED,
    Instance,
    instance_fingerprint,
    resume,
    solve,
    solve_iter,
)
from repro.dynamic import (
    DynamicInstance,
    add_edge,
    resolve_incremental,
    set_node_weight,
)
from repro.graphs import assign_node_weights, gnp_graph
from repro.utils import drain

SEED = 7


@pytest.fixture
def calls(monkeypatch):
    """A list that grows by one per fingerprint the facade computes."""

    seen = []

    def counting(instance):
        seen.append(instance)
        return instance_fingerprint(instance)

    monkeypatch.setattr(facade, "instance_fingerprint", counting)
    return seen


@pytest.fixture(scope="module")
def graph():
    g = gnp_graph(24, 0.2, seed=3)
    assign_node_weights(g, 32, seed=4)
    return g


@pytest.mark.parametrize("backend", ["object", "array"])
@pytest.mark.parametrize("algorithm", ["maxis-layers", "mis-luby"])
def test_unbudgeted_solve_makes_no_call(calls, graph, algorithm, backend):
    report = solve(Instance(graph, seed=SEED, backend=backend), algorithm)
    assert report.status == "complete"
    assert report.resume_state is None
    assert calls == []


def test_plain_resume_makes_one_call(calls, graph):
    truncated = solve(Instance(graph, seed=SEED, max_rounds=3),
                      "maxis-layers")
    # A budgeted solve stamps its envelope, computing the value once.
    assert truncated.status == TRUNCATED
    assert len(calls) == 1
    calls.clear()
    resumed = resume(truncated,
                     instance=replace(truncated.instance, max_rounds=None))
    assert resumed.status == "complete"
    assert len(calls) == 1


def test_incremental_step_makes_two_calls(calls, graph):
    base = graph.copy()
    u, v = next((a, b) for a in sorted(base) for b in sorted(base)
                if a < b and not base.has_edge(a, b))
    dynamic = DynamicInstance(
        Instance(base, seed=SEED, backend="array"),
        batches=[[add_edge(u, v)], [set_node_weight(u, 5)]])
    result = resolve_incremental(dynamic, "maxis-layers")
    assert len(result.steps) == 3
    # The version-0 stream stamps its fresh marker once; each step then
    # costs the resume check plus the base-graph check.
    assert len(calls) == 1 + 2 * len(dynamic.batches)


def test_unbudgeted_truncation_builds_the_parent_envelope(
        calls, graph, monkeypatch):
    # An unbudgeted runner that hits its own simulator cap ends
    # truncated: solve() then builds the envelope once, at the end, and
    # it is exactly the one the eager solve_iter path carries.
    monkeypatch.setattr("repro.core.maxis_layers.default_round_budget",
                        lambda graph: 2)
    instance = Instance(graph, seed=SEED)
    lazy = solve(instance, "maxis-layers")
    assert lazy.status == TRUNCATED
    assert len(calls) == 1
    eager = drain(solve_iter(instance, "maxis-layers"))
    assert lazy.resume_state == eager.resume_state
    assert lazy.resume_state["state"] == {"fresh": True}
