"""The anytime solve protocol: checkpoints, budgets, truncation.

Pins the tentpole contract of the budgeted execution layer:

* ``solve_iter`` yields valid checkpoints with monotone rounds and
  returns the same report ``solve`` does;
* ``solve`` with ``max_rounds`` set returns ``status="truncated"`` and
  a certified partial solution instead of raising, for *every*
  registered algorithm;
* budget edge cases — ``max_rounds=0``, a budget hit exactly at the
  termination round, truncated-run determinism at fixed seeds — and
  facade-vs-legacy parity unchanged when no budget is set.
"""

from dataclasses import replace

import pytest

from repro.api import (
    COMPLETE,
    TRUNCATED,
    Checkpoint,
    Instance,
    list_algorithms,
    solve,
    solve_iter,
)
from repro.graphs import (
    assign_edge_weights,
    assign_node_weights,
    check_independent_set,
    check_matching,
    gnp_graph,
    random_bipartite_graph,
)

SEED = 7


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


def graph_for(spec, general, bipartite):
    return bipartite if spec.requires_bipartite else general


def drain(generator):
    """Consume a solve_iter stream; return (checkpoints, report)."""

    checkpoints = []
    while True:
        try:
            checkpoints.append(next(generator))
        except StopIteration as stop:
            return checkpoints, stop.value


def certify(report):
    if report.problem in ("maxis", "mis"):
        check_independent_set(report.instance.graph, report.solution)
    else:
        check_matching(report.instance.graph,
                       [tuple(e) for e in report.solution])


class TestSolveIter:
    def test_checkpoints_are_typed_and_monotone(self, general_graph):
        checkpoints, report = drain(
            solve_iter(Instance(general_graph, seed=SEED), "maxis-layers")
        )
        assert checkpoints, "no checkpoints emitted"
        rounds = [cp.rounds for cp in checkpoints]
        assert rounds == sorted(rounds)
        objectives = [cp.objective for cp in checkpoints]
        assert objectives == sorted(objectives), (
            "Algorithm 2's partial weight can only grow"
        )
        for cp in checkpoints:
            assert isinstance(cp, Checkpoint)
            assert cp.valid
            check_independent_set(general_graph, cp.solution)
        assert report.status == COMPLETE
        # An unbudgeted stream still opens with the fresh-start marker,
        # stamped with the instance's (pinned) budget-agnostic
        # fingerprint; only solve() skips building it.
        first = checkpoints[0].resume_state
        assert first["state"] == {"fresh": True}
        assert first["fingerprint"] == "5e42fe95f54e7b58"

    def test_stream_return_matches_solve(self, general_graph):
        instance = Instance(general_graph, seed=SEED)
        _, via_iter = drain(solve_iter(instance, "maxis-layers"))
        via_solve = solve(instance, "maxis-layers")
        assert via_iter.solution == via_solve.solution
        assert via_iter.rounds == via_solve.rounds
        assert via_iter.status == via_solve.status == COMPLETE

    def test_every_algorithm_is_iterable(self, general_graph,
                                         bipartite_graph):
        for spec in list_algorithms():
            graph = graph_for(spec, general_graph, bipartite_graph)
            checkpoints, report = drain(
                solve_iter(Instance(graph, seed=SEED), spec.name)
            )
            assert checkpoints, f"{spec.name}: no checkpoints"
            assert report.status == COMPLETE
            assert checkpoints[0].rounds == 0, (
                f"{spec.name}: the stream must open with the initial state"
            )

    def test_unknown_algorithm_raises_eagerly(self, general_graph):
        from repro.api import UnknownAlgorithm

        with pytest.raises(UnknownAlgorithm):
            solve_iter(Instance(general_graph), "no-such-algorithm")

    def test_simulator_final_checkpoint_is_flagged(self, general_graph):
        checkpoints, _ = drain(
            solve_iter(Instance(general_graph, seed=SEED), "maxis-layers")
        )
        assert checkpoints[-1].final
        assert not any(cp.final for cp in checkpoints[:-1])

    def test_budget_above_the_paper_default_replaces_it(self,
                                                        general_graph):
        # An explicit budget wins in both directions (legacy semantics):
        # a huge one must not be clamped down to the paper default.
        full = solve(Instance(general_graph, seed=SEED), "maxis-layers")
        huge = solve(
            Instance(general_graph, seed=SEED, max_rounds=10 ** 9),
            "maxis-layers",
        )
        assert huge.status == COMPLETE
        assert huge.solution == full.solution
        assert huge.rounds == full.rounds

    def test_phase_structured_algorithms_emit_real_phases(self,
                                                          general_graph):
        # The tentpole names these as per-phase (not begin/end) emitters.
        for name in ("maxis-layers", "matching-oneeps",
                     "matching-oneeps-congest"):
            spec = next(s for s in list_algorithms() if s.name == name)
            assert spec.describe()["anytime"] == "phases"
        coarse = next(s for s in list_algorithms()
                      if s.name == "matching-greedy")
        assert coarse.describe()["anytime"] == "coarse"


class TestBudgetEnforcement:
    def test_truncated_instead_of_raising_for_every_algorithm(
            self, general_graph, bipartite_graph):
        for spec in list_algorithms():
            graph = graph_for(spec, general_graph, bipartite_graph)
            report = solve(Instance(graph, seed=SEED, max_rounds=1),
                           spec.name)
            assert report.status in (COMPLETE, TRUNCATED)
            assert report.rounds <= 1, spec.name
            certify(report)
            if report.status == TRUNCATED:
                assert report.bound is None, (
                    f"{spec.name}: a truncated run must not claim the "
                    "guarantee bound"
                )

    def test_max_rounds_zero(self, general_graph):
        report = solve(Instance(general_graph, seed=SEED, max_rounds=0),
                       "maxis-layers")
        assert report.status == TRUNCATED
        assert report.rounds == 0
        assert report.solution == frozenset()
        assert report.objective == 0

    def test_budget_exactly_at_termination_round_is_complete(
            self, general_graph):
        full = solve(Instance(general_graph, seed=SEED), "maxis-layers")
        exact = solve(
            Instance(general_graph, seed=SEED, max_rounds=full.rounds),
            "maxis-layers",
        )
        assert exact.status == COMPLETE
        assert exact.solution == full.solution
        assert exact.rounds == full.rounds
        assert exact.bound == full.bound

    def test_one_round_short_truncates(self, general_graph):
        full = solve(Instance(general_graph, seed=SEED), "maxis-layers")
        short = solve(
            Instance(general_graph, seed=SEED, max_rounds=full.rounds - 1),
            "maxis-layers",
        )
        assert short.status == TRUNCATED
        assert short.rounds <= full.rounds - 1
        assert short.objective <= full.objective
        check_independent_set(general_graph, short.solution)

    def test_truncated_runs_are_deterministic(self, general_graph):
        instance = Instance(general_graph, seed=SEED, max_rounds=5)
        first = solve(instance, "maxis-layers")
        second = solve(instance, "maxis-layers")
        assert first.status == second.status == TRUNCATED
        assert first.solution == second.solution
        assert first.objective == second.objective
        assert first.rounds == second.rounds

    def test_truncation_is_a_prefix_of_the_full_run(self, general_graph):
        # Fixed seed: the budgeted run executes a prefix of the same
        # random stream, so its partial solution is a subset of every
        # longer run's state at the same round.
        full = solve(Instance(general_graph, seed=SEED), "maxis-layers")
        previous = frozenset()
        for budget in range(0, full.rounds + 1, 2):
            partial = solve(
                Instance(general_graph, seed=SEED, max_rounds=budget),
                "maxis-layers",
            )
            assert previous <= partial.solution
            previous = partial.solution
        assert previous <= full.solution

    def test_oneeps_phase_grain_budget(self, general_graph):
        full = solve(Instance(general_graph, seed=SEED, eps=0.5),
                     "matching-oneeps")
        budget = max(1, full.rounds - 1)
        short = solve(
            Instance(general_graph, seed=SEED, eps=0.5, max_rounds=budget),
            "matching-oneeps",
        )
        assert short.status == TRUNCATED
        assert short.rounds <= budget
        check_matching(general_graph, [tuple(e) for e in short.solution])
        # extras survive truncation so Theorem B.4 accounting stays
        # inspectable mid-run
        assert "deactivated" in short.extras

    def test_as_row_surfaces_truncation(self, general_graph):
        row = solve(Instance(general_graph, seed=SEED, max_rounds=2),
                    "maxis-layers").as_row()
        assert row["status"] == TRUNCATED
        full_row = solve(Instance(general_graph, seed=SEED),
                         "maxis-layers").as_row()
        assert "status" not in full_row, (
            "complete runs keep the historical row shape"
        )


class TestNoBudgetParity:
    def test_facade_unchanged_without_budget(self, general_graph):
        # replace() with max_rounds=None must be a no-op relative to a
        # fresh unbudgeted instance — the legacy-parity suite pins the
        # facade against repro.core; this pins budget-path neutrality.
        base = Instance(general_graph, seed=SEED)
        explicit = replace(base, max_rounds=None)
        for name in ("maxis-layers", "matching-oneeps",
                     "matching-lines", "mis-luby"):
            a = solve(base, name)
            b = solve(explicit, name)
            assert a.solution == b.solution
            assert a.rounds == b.rounds
            assert a.status == b.status == COMPLETE
            assert a.ledger_counts() == b.ledger_counts()


class TestBatchStatuses:
    def test_truncated_tasks_aggregate_not_fail(self, general_graph):
        from repro.api import solve_many

        instances = [
            Instance(general_graph, seed=SEED, max_rounds=budget)
            for budget in (0, 3, None)
        ]
        report = solve_many(instances, "maxis-layers")
        assert not report.failures
        statuses = [item.status for item in report]
        assert statuses == [TRUNCATED, TRUNCATED, COMPLETE]
        assert [item.report.status for item in report.truncated] == \
            [TRUNCATED, TRUNCATED]
        summary = report.summary()
        assert summary["statuses"] == {TRUNCATED: 2, COMPLETE: 1}
        assert summary["failed"] == 0

    def test_failed_task_status(self, general_graph):
        from repro.api.batch import BatchItem

        item = BatchItem(index=0, fingerprint="x", algorithm="a",
                         error="ValueError: boom")
        assert item.status == "failed"
        assert not item.ok
