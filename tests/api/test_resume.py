"""The checkpoint/resume protocol: **resume ≡ never-stopped**.

The registry-wide contract this suite pins (the PR-5 tentpole):

* for *every* registered algorithm, truncating at a round budget ``k``
  and resuming the truncated report reproduces the unbounded run
  bit-for-bit — same solution, objective, round count and ledger
  breakdown — with the stop point swept over ``k ∈ {0, 1, mid,
  last-phase}`` for every phased (generator-runner) entry;
* ``resume_state`` payloads survive a ``json.dumps``/``loads`` round
  trip and still continue identically (persisted warm starts);
* multi-hop resume (truncate → resume under a new budget → truncate →
  resume to completion) composes, with the budget staying cumulative;
* the error paths are typed: resuming a ``status="complete"`` report
  raises :class:`~repro.errors.NotResumable`, a mismatched instance
  fingerprint raises :class:`~repro.errors.ResumeMismatch`.

Like ``test_facade_parity.py`` gates registration, the parametrization
here covers the whole registry: a future algorithm registered with a
phased runner but a broken (or missing) resume path fails this suite.
"""

import inspect
import json
from dataclasses import replace

import pytest

from repro.api import (
    COMPLETE,
    TRUNCATED,
    Instance,
    NotResumable,
    ResumeMismatch,
    list_algorithms,
    registry_as_json,
    resume,
    resume_iter,
    solve,
    solve_iter,
)
from repro.errors import ResumeError
from repro.graphs import (
    assign_edge_weights,
    assign_node_weights,
    gnp_graph,
    random_bipartite_graph,
)
from repro.utils import drain

SEED = 7
EPS = 0.5

#: Algorithms the tentpole promotes from coarse begin/end to real
#: per-phase checkpointing (ROADMAP open item); the flavor test below
#: fails if any of them regresses to coarse.
NEWLY_PHASED = (
    "maxis-coloring",
    "matching-lines",
    "matching-proposal",
    "matching-proposal-bipartite",
)


@pytest.fixture(scope="module")
def general_graph():
    g = gnp_graph(16, 0.25, seed=3)
    assign_node_weights(g, 32, seed=4)
    assign_edge_weights(g, 32, seed=5)
    return g


@pytest.fixture(scope="module")
def bipartite_graph():
    g = random_bipartite_graph(6, 6, 0.4, seed=6)
    assign_edge_weights(g, 16, seed=7)
    return g


def instance_for(spec, general, bipartite, **overrides):
    graph = bipartite if spec.requires_bipartite else general
    return Instance(graph, seed=SEED, eps=EPS, **overrides)


@pytest.fixture(scope="module")
def unbounded(general_graph, bipartite_graph):
    """One unbounded run per algorithm, shared across the sweep."""

    return {
        spec.name: solve(
            instance_for(spec, general_graph, bipartite_graph), spec.name
        )
        for spec in list_algorithms()
    }


def assert_equals_unbounded(resumed, full, context):
    assert resumed.status == COMPLETE, context
    assert resumed.solution == full.solution, context
    assert resumed.objective == full.objective, context
    assert resumed.rounds == full.rounds, context
    assert resumed.ledger_counts() == full.ledger_counts(), context


def stop_points(full_rounds):
    """The satellite's sweep: k ∈ {0, 1, mid, last-phase}."""

    return sorted({
        k for k in (0, 1, full_rounds // 2, full_rounds - 1)
        if 0 <= k < full_rounds
    })


# ----------------------------------------------------------------------
# the registry-wide pinned contract
# ----------------------------------------------------------------------
class TestResumeContract:
    @pytest.mark.parametrize(
        "name", sorted(s.name for s in list_algorithms())
    )
    def test_truncate_then_resume_is_the_unbounded_run(
            self, name, general_graph, bipartite_graph, unbounded):
        spec = next(s for s in list_algorithms() if s.name == name)
        full = unbounded[name]
        if full.rounds == 0:
            pytest.skip(f"{name} terminates in 0 rounds; nothing to cut")
        base = instance_for(spec, general_graph, bipartite_graph)
        for k in stop_points(full.rounds):
            truncated = solve(replace(base, max_rounds=k), name)
            assert truncated.status == TRUNCATED, (name, k)
            assert truncated.rounds <= k, (name, k)
            assert truncated.resume_state is not None, (
                f"{name}: a truncated report must be resumable (k={k})"
            )
            resumed = resume(truncated, instance=base)
            assert_equals_unbounded(resumed, full, (name, k))

    @pytest.mark.parametrize(
        "name",
        sorted(s.name for s in list_algorithms() if s.anytime == "phases"),
    )
    def test_phase_runners_continue_instead_of_restarting(
            self, name, general_graph, bipartite_graph, unbounded):
        # Not just equal output: a phase-structured resume must *keep*
        # the truncated run's partial solution (its objective can only
        # grow) — restarting from scratch would too, so additionally
        # pin that the resumed stream opens at the checkpoint's round
        # count, not at zero.
        spec = next(s for s in list_algorithms() if s.name == name)
        full = unbounded[name]
        if full.rounds < 2:
            pytest.skip(f"{name} has no interior stop point")
        base = instance_for(spec, general_graph, bipartite_graph)
        k = full.rounds // 2
        truncated = solve(replace(base, max_rounds=k), name)
        assert truncated.status == TRUNCATED
        stream = resume_iter(truncated, instance=base)
        first = next(stream)
        assert first.rounds == truncated.resume_state["rounds"], name
        assert first.rounds > 0 or truncated.rounds == 0, (
            f"{name}: resume restarted from round 0"
        )
        resumed = drain(stream)
        assert_equals_unbounded(resumed, full, (name, k))

    def test_simulator_traffic_accounting_continues(self, general_graph,
                                                    unbounded):
        # Algorithm 2 reports the simulator's cumulative NetworkMetrics:
        # a resumed run must carry the prefix's messages/bits forward,
        # not restart the meters.
        full = unbounded["maxis-layers"]
        base = Instance(general_graph, seed=SEED, eps=EPS)
        k = full.rounds // 2
        truncated = solve(replace(base, max_rounds=k), "maxis-layers")
        resumed = resume(truncated, instance=base)
        assert resumed.metrics is not None
        assert resumed.metrics.bits == full.metrics.bits
        assert resumed.metrics.messages == full.metrics.messages
        assert resumed.metrics.rounds == full.metrics.rounds

    def test_newly_phased_algorithms_are_no_longer_coarse(self):
        for name in NEWLY_PHASED:
            spec = next(s for s in list_algorithms() if s.name == name)
            assert spec.anytime == "phases", (
                f"{name} regressed to the coarse begin/end adapter"
            )

    def test_registry_json_surfaces_resume_capability(self):
        entries = {row["name"]: row for row in registry_as_json()}
        for spec in list_algorithms():
            row = entries[spec.name]
            assert row["resume"] == row["anytime"]
            expected = ("phases" if inspect.isgeneratorfunction(
                inspect.unwrap(spec.run_iter)) else "coarse")
            assert row["resume"] == expected, spec.name


# ----------------------------------------------------------------------
# serialization round trips (persisted warm starts)
# ----------------------------------------------------------------------
class TestSerializationRoundTrip:
    @pytest.mark.parametrize("name", ["maxis-layers", "matching-oneeps"])
    def test_report_payload_survives_json(self, name, general_graph,
                                          unbounded):
        full = unbounded[name]
        base = Instance(general_graph, seed=SEED, eps=EPS)
        k = full.rounds // 2
        truncated = solve(replace(base, max_rounds=k), name)
        payload = json.loads(json.dumps(truncated.resume_state,
                                        sort_keys=True))
        resumed = resume(payload, instance=base)
        assert_equals_unbounded(resumed, full, name)

    def test_checkpoint_payload_survives_json(self, general_graph,
                                              unbounded):
        # The payload from a mid-stream checkpoint (not just the final
        # report) is equally resumable after persistence.
        full = unbounded["matching-oneeps"]
        base = Instance(general_graph, seed=SEED, eps=EPS)
        stream = solve_iter(replace(base, max_rounds=full.rounds - 1),
                            "matching-oneeps")
        payloads = [cp.resume_state for cp in stream
                    if cp.resume_state is not None]
        assert payloads, "budgeted stream emitted no resumable state"
        payload = json.loads(json.dumps(payloads[-1]))
        resumed = resume(payload, instance=base)
        assert_equals_unbounded(resumed, full, "matching-oneeps")

    def test_unbudgeted_streams_stay_lean(self, general_graph):
        # No budget → nothing can cut the run → runners skip state
        # capture; only the fresh-start marker rides the first
        # checkpoint.
        checkpoints = list(solve_iter(
            Instance(general_graph, seed=SEED), "maxis-layers"
        ))
        assert checkpoints[0].resume_state is not None
        state = checkpoints[0].resume_state["state"]
        assert state == {"fresh": True}
        assert all(cp.resume_state is None for cp in checkpoints[1:])


# ----------------------------------------------------------------------
# multi-hop resume (cumulative budgets)
# ----------------------------------------------------------------------
class TestMultiHop:
    @pytest.mark.parametrize("name", ["maxis-layers", "matching-oneeps",
                                      "matching-oneeps-congest"])
    def test_two_truncations_then_completion(self, name, general_graph,
                                             unbounded):
        full = unbounded[name]
        if full.rounds < 3:
            pytest.skip(f"{name} finishes too fast for two hops")
        base = Instance(general_graph, seed=SEED, eps=EPS)
        k1 = full.rounds // 3
        k2 = (2 * full.rounds) // 3
        hop1 = solve(replace(base, max_rounds=k1), name)
        assert hop1.status == TRUNCATED
        # The second budget is cumulative: it extends the same run.
        hop2 = resume(hop1, instance=replace(base, max_rounds=k2))
        assert hop2.status == TRUNCATED
        assert hop1.rounds <= hop2.rounds <= k2
        assert hop2.resume_state is not None
        final = resume(hop2, instance=base)
        assert_equals_unbounded(final, full, name)

    def test_resolved_options_are_pinned_in_the_payload(self,
                                                        general_graph):
        # The never-stopped contract must hold even when the original
        # run used non-default algorithm options and the resume call
        # omits them: the payload pins what the run resolved.
        base = Instance(general_graph, seed=SEED, eps=EPS)
        full = solve(base, "matching-oneeps-congest", stages=2)
        truncated = solve(replace(base, max_rounds=full.rounds // 2),
                          "matching-oneeps-congest", stages=2)
        assert truncated.status == TRUNCATED
        resumed = resume(truncated, instance=base)  # stages= omitted
        assert_equals_unbounded(resumed, full, "pinned-options")

    def test_warm_start_keyword_is_the_same_path(self, general_graph,
                                                 unbounded):
        full = unbounded["maxis-layers"]
        base = Instance(general_graph, seed=SEED, eps=EPS)
        truncated = solve(replace(base, max_rounds=full.rounds // 2),
                          "maxis-layers")
        resumed = solve(base, "maxis-layers", warm_start=truncated)
        assert_equals_unbounded(resumed, full, "warm_start")


# ----------------------------------------------------------------------
# the backend axis: array-kernel runs honor the same contract
# ----------------------------------------------------------------------
#: Registry entries with a vectorized kernel (PR-6 tentpole): the whole
#: resume contract must hold with the array backend on either side of
#: the truncation, and produce the object backend's bits exactly.
ARRAY_PORTED = (
    "maxis-layers",
    "maxis-coloring",
    "matching-proposal",
    "matching-proposal-bipartite",
)

BACKEND_AXIS = [("array", "array"), ("object", "array"),
                ("array", "object")]


class TestBackendAxis:
    def test_ported_set_matches_the_registry(self):
        ported = sorted(s.name for s in list_algorithms() if s.array_kernel)
        assert ported == sorted(ARRAY_PORTED)

    @pytest.mark.parametrize("truncate_on,resume_on", BACKEND_AXIS)
    @pytest.mark.parametrize("name", ARRAY_PORTED)
    def test_truncate_and_resume_across_backends(
            self, name, truncate_on, resume_on,
            general_graph, bipartite_graph, unbounded):
        # The resume payload is backend-agnostic: a checkpoint captured
        # on either engine continues bit-for-bit on the other, and both
        # reproduce the object backend's unbounded run.
        spec = next(s for s in list_algorithms() if s.name == name)
        full = unbounded[name]
        if full.rounds < 2:
            pytest.skip(f"{name} has no interior stop point")
        base = instance_for(spec, general_graph, bipartite_graph)
        k = full.rounds // 2
        truncated = solve(
            replace(base, max_rounds=k, backend=truncate_on), name
        )
        assert truncated.status == TRUNCATED, (name, truncate_on)
        resumed = resume(truncated,
                         instance=replace(base, backend=resume_on))
        assert_equals_unbounded(resumed, full, (name, truncate_on,
                                                resume_on))

    @pytest.mark.parametrize("name", ARRAY_PORTED)
    def test_max_rounds_zero_on_array_backend(
            self, name, general_graph, bipartite_graph, unbounded):
        spec = next(s for s in list_algorithms() if s.name == name)
        full = unbounded[name]
        base = instance_for(spec, general_graph, bipartite_graph,
                            backend="array")
        truncated = solve(replace(base, max_rounds=0), name)
        assert truncated.status == TRUNCATED
        assert truncated.rounds == 0
        resumed = resume(truncated, instance=base)
        assert_equals_unbounded(resumed, full, (name, "k=0"))

    @pytest.mark.parametrize("name", ["maxis-layers", "maxis-coloring"])
    def test_degenerate_graphs_agree_across_backends(self, name):
        import networkx as nx

        empty = nx.Graph()
        isolated = nx.Graph()
        isolated.add_nodes_from(range(5))
        single = nx.Graph([(0, 1)])
        single.nodes[0]["weight"] = 9
        single.nodes[1]["weight"] = 2
        for graph in (empty, isolated, single):
            obj = solve(Instance(graph, seed=SEED), name)
            arr = solve(Instance(graph, seed=SEED, backend="array"), name)
            assert arr.solution == obj.solution
            assert arr.objective == obj.objective
            assert arr.rounds == obj.rounds

    def test_metrics_continue_across_a_backend_switch(self, general_graph,
                                                      unbounded):
        # Cumulative traffic accounting survives truncating on the
        # array engine and finishing on the object engine.
        full = unbounded["maxis-layers"]
        base = Instance(general_graph, seed=SEED, eps=EPS)
        k = full.rounds // 2
        truncated = solve(
            replace(base, max_rounds=k, backend="array"), "maxis-layers"
        )
        resumed = resume(truncated, instance=base)
        assert resumed.metrics.bits == full.metrics.bits
        assert resumed.metrics.messages == full.metrics.messages
        assert resumed.metrics.rounds == full.metrics.rounds

    def test_backend_does_not_change_the_fingerprint(self, general_graph,
                                                     unbounded):
        # Deliberate: results are bit-identical across backends, so a
        # payload captured under backend="array" resumes under the
        # default instance without a ResumeMismatch.
        full = unbounded["maxis-layers"]
        base = Instance(general_graph, seed=SEED, eps=EPS)
        truncated = solve(
            replace(base, max_rounds=full.rounds // 2, backend="array"),
            "maxis-layers",
        )
        resumed = resume(truncated, instance=base)  # backend omitted
        assert_equals_unbounded(resumed, full, "fingerprint")


# ----------------------------------------------------------------------
# error paths (typed)
# ----------------------------------------------------------------------
class TestErrorPaths:
    def test_resuming_a_complete_report_raises(self, general_graph,
                                               unbounded):
        full = unbounded["maxis-layers"]
        assert full.status == COMPLETE
        with pytest.raises(NotResumable):
            resume(full)

    def test_mismatched_instance_fingerprint_raises(self, general_graph,
                                                    unbounded):
        full = unbounded["maxis-layers"]
        base = Instance(general_graph, seed=SEED, eps=EPS)
        truncated = solve(replace(base, max_rounds=full.rounds // 2),
                          "maxis-layers")
        with pytest.raises(ResumeMismatch):
            resume(truncated, instance=replace(base, seed=SEED + 1))

    def test_budget_may_differ_without_mismatch(self, general_graph,
                                                unbounded):
        # max_rounds is excluded from the fingerprint by design: the
        # whole point of a warm start is a different budget.
        full = unbounded["maxis-layers"]
        base = Instance(general_graph, seed=SEED, eps=EPS)
        truncated = solve(replace(base, max_rounds=full.rounds // 2),
                          "maxis-layers")
        resumed = resume(
            truncated, instance=replace(base, max_rounds=10 ** 9)
        )
        assert_equals_unbounded(resumed, full, "budget-change")

    def test_budget_below_checkpoint_raises(self, general_graph,
                                            unbounded):
        full = unbounded["maxis-layers"]
        base = Instance(general_graph, seed=SEED, eps=EPS)
        k = full.rounds // 2
        truncated = solve(replace(base, max_rounds=k), "maxis-layers")
        consumed = truncated.resume_state["rounds"]
        if consumed == 0:
            pytest.skip("checkpoint consumed no rounds")
        with pytest.raises(NotResumable):
            resume(truncated,
                   instance=replace(base, max_rounds=consumed - 1))

    def test_wrong_algorithm_raises(self, general_graph, unbounded):
        full = unbounded["maxis-layers"]
        base = Instance(general_graph, seed=SEED, eps=EPS)
        truncated = solve(replace(base, max_rounds=full.rounds // 2),
                          "maxis-layers")
        with pytest.raises(ResumeMismatch):
            resume(truncated, instance=base, algorithm="maxis-coloring")

    def test_malformed_payload_raises(self, general_graph):
        with pytest.raises(NotResumable):
            resume({"algorithm": "maxis-layers"},
                   instance=Instance(general_graph))
        with pytest.raises(NotResumable):
            resume(object(), instance=Instance(general_graph))

    def test_payload_without_instance_raises(self, general_graph,
                                             unbounded):
        full = unbounded["maxis-layers"]
        base = Instance(general_graph, seed=SEED, eps=EPS)
        truncated = solve(replace(base, max_rounds=full.rounds // 2),
                          "maxis-layers")
        with pytest.raises(NotResumable):
            resume(dict(truncated.resume_state))

    def test_typed_errors_share_a_base(self):
        assert issubclass(NotResumable, ResumeError)
        assert issubclass(ResumeMismatch, ResumeError)
