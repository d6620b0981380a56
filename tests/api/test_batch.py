"""Tests for the batch execution engine (``repro.api.batch``)."""

import multiprocessing
import os
from concurrent.futures import ThreadPoolExecutor

import networkx as nx
import pytest

from repro.api import (
    Instance,
    instance_fingerprint,
    random_instance,
    resume,
    solve,
    solve_many,
)
from repro.api.batch import execute_indexed
from repro.graphs import gnp_graph


def _instances(count=3, n=14, p=0.25):
    return [random_instance("maxis", n=n, p=p, seed=s) for s in range(count)]


def _exit_on_sentinel(x):
    """Module-level (picklable) task that hard-kills its worker on -1."""

    if x == -1:
        os._exit(1)
    return x


def _graph(nodes, edges, node_weights=None, edge_weights=None):
    g = nx.Graph()
    g.add_nodes_from(nodes)
    g.add_edges_from(edges)
    if node_weights is not None:
        nx.set_node_attributes(g, dict(zip(nodes, node_weights)), "weight")
    if edge_weights is not None:
        nx.set_edge_attributes(g, dict(zip(edges, edge_weights)), "weight")
    return g


def _pinned_instances():
    """One instance per id type / weighting / MPC shape the pins cover."""

    ring = _graph([0, 1, 2, 3], [(0, 1), (1, 2), (2, 3), (3, 0)])
    fs = frozenset
    return {
        "empty": Instance(nx.Graph()),
        "int_unweighted": Instance(ring, seed=7),
        # repr order ('10' < '100' < '2' < '9') differs from int order.
        "repr_order": Instance(
            _graph([9, 10, 100, 2], [(9, 10), (100, 9), (2, 10)]), seed=3),
        "str": Instance(
            _graph(["b", "a", "B", "aa"],
                   [("b", "a"), ("aa", "B"), ("a", "aa")]),
            model="LOCAL"),
        "tuple": Instance(_graph(
            [(0, 1), (1, 0), (0, (2,)), (10,)],
            [((1, 0), (0, 1)), ((0, (2,)), (10,))])),
        "frozenset": Instance(_graph(
            [fs({1, 2}), fs({3}), fs()],
            [(fs({3}), fs({1, 2})), (fs(), fs({3}))])),
        "mixed": Instance(_graph([1, "1", (1,)], [(1, "1"), ("1", (1,))])),
        "node_weights": Instance(
            _graph([0, 1, 2], [(0, 1), (1, 2)], node_weights=[5, 1, 12]),
            eps=0.25),
        "node_and_edge_weights": Instance(
            _graph([0, 1, 2], [(0, 1), (2, 1)], node_weights=[5, 1, 12],
                   edge_weights=[3, 8]),
            max_rounds=11, bandwidth_factor=4, strict=True),
        "mpc_unset": Instance(ring, model="mpc", seed=2),
        "mpc_set": Instance(ring, model="mpc", seed=2, machines=3,
                            delta=0.5),
        "random_maxis": random_instance("maxis", n=40, p=0.12, seed=3),
        "random_matching": random_instance("matching", n=40, p=0.12,
                                           seed=3),
    }


#: Fingerprints of :func:`_pinned_instances`, recorded before the
#: fingerprint's implementation was last rewritten.  Persisted resume
#: envelopes and batch keys depend on these staying byte-identical.
PINNED_FINGERPRINTS = {
    "empty": "f748b5b52a75b396",
    "int_unweighted": "66f10173642ad325",
    "repr_order": "6b21d642cc81f2b2",
    "str": "402684a39cf8f21c",
    "tuple": "ad8fdcb844e36ef3",
    "frozenset": "fca5a730ca25660e",
    "mixed": "3fd3a90cb3fb76b1",
    "node_weights": "f4b40aceed6b7418",
    "node_and_edge_weights": "424aac9172aea13f",
    "mpc_unset": "ed2253473c56a324",
    "mpc_set": "b25012366a389355",
    "random_maxis": "674aec0be156ea4b",
    "random_matching": "76c27ad003964ddd",
}


class TestInstanceFingerprint:
    def test_stable_across_calls(self):
        inst = random_instance("maxis", n=12, p=0.3, seed=4)
        assert instance_fingerprint(inst) == instance_fingerprint(inst)

    def test_rebuilt_instance_matches(self):
        a = random_instance("maxis", n=12, p=0.3, seed=4)
        b = random_instance("maxis", n=12, p=0.3, seed=4)
        assert a.graph is not b.graph
        assert instance_fingerprint(a) == instance_fingerprint(b)

    def test_sensitive_to_seed_and_structure(self):
        base = random_instance("maxis", n=12, p=0.3, seed=4)
        other_seed = random_instance("maxis", n=12, p=0.3, seed=5)
        assert instance_fingerprint(base) != instance_fingerprint(other_seed)
        reweighted = Instance(gnp_graph(12, 0.3, seed=1), seed=base.seed)
        assert instance_fingerprint(base) != instance_fingerprint(reweighted)

    def test_sensitive_to_model_and_eps(self):
        g = gnp_graph(10, 0.3, seed=1)
        assert (instance_fingerprint(Instance(g, model="LOCAL"))
                != instance_fingerprint(Instance(g, model="CONGEST")))
        assert (instance_fingerprint(Instance(g, eps=0.5))
                != instance_fingerprint(Instance(g, eps=0.25)))

    @pytest.mark.parametrize("name", sorted(PINNED_FINGERPRINTS))
    def test_golden_pins(self, name):
        instance = _pinned_instances()[name]
        assert instance_fingerprint(instance) == PINNED_FINGERPRINTS[name]

    def test_pins_cover_every_case(self):
        assert set(_pinned_instances()) == set(PINNED_FINGERPRINTS)


class TestExecuteIndexed:
    def test_serial_preserves_order(self):
        results = execute_indexed(lambda x: x * 2, [3, 1, 2])
        assert results == [(6, None), (2, None), (4, None)]

    def test_serial_isolates_failures(self):
        def fn(x):
            if x == 1:
                raise ValueError("boom")
            return x

        results = execute_indexed(fn, [0, 1, 2])
        assert results[0] == (0, None)
        assert results[1][0] is None
        assert "ValueError: boom" in results[1][1]
        assert results[2] == (2, None)

    def test_thread_backend_matches_serial(self):
        tasks = list(range(23))
        serial = execute_indexed(lambda x: x * x, tasks)
        with ThreadPoolExecutor(max_workers=3) as pool:
            threaded = execute_indexed(lambda x: x * x, tasks,
                                       executor=pool, workers=3,
                                       chunksize=2)
        assert threaded == serial

    def test_thread_name_rejected(self):
        with pytest.raises(ValueError, match="unknown executor"):
            execute_indexed(lambda x: x, [1, 2], executor="thread",
                            workers=2)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            execute_indexed(lambda x: x, [1], executor="carrier-pigeon")

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="worker-death test pickles a test-module function",
    )
    def test_dead_worker_does_not_sink_the_batch(self):
        # The sentinel task kills its worker outright, bypassing the
        # in-worker try/except.  The contract: execute_indexed still
        # returns (no BrokenProcessPool escapes), every slot is
        # filled, the sentinel's slot records the breakage, and any
        # chunk that finished before the pool broke keeps its result.
        results = execute_indexed(_exit_on_sentinel, [1, -1, 2],
                                  executor="process", workers=2,
                                  chunksize=1)
        assert len(results) == 3
        assert all(slot is not None for slot in results)
        assert results[1][0] is None
        assert "worker died" in results[1][1]
        for value, (result, error) in zip((1, 2), (results[0], results[2])):
            assert result == value or "worker died" in error


class TestSolveMany:
    def test_matches_individual_solves(self):
        instances = _instances()
        batch = solve_many(instances, "maxis-layers", executor="serial")
        assert len(batch) == len(instances)
        for inst, item in zip(instances, batch):
            direct = solve(inst, "maxis-layers")
            assert item.ok
            assert item.report.solution == direct.solution
            assert item.report.rounds == direct.rounds

    def test_cross_product_order_is_instance_major(self):
        instances = _instances(2)
        batch = solve_many(instances, ["maxis-layers", "maxis-coloring"],
                           executor="serial")
        assert [item.algorithm for item in batch] == [
            "maxis-layers", "maxis-coloring",
            "maxis-layers", "maxis-coloring",
        ]
        assert batch.items[0].fingerprint == batch.items[1].fingerprint
        assert batch.items[0].fingerprint != batch.items[2].fingerprint

    def test_process_pool_matches_serial(self):
        instances = _instances()
        serial = solve_many(instances, "maxis-layers", executor="serial")
        pooled = solve_many(instances, "maxis-layers",
                            executor="process", workers=2)
        assert [i.fingerprint for i in serial] == [
            i.fingerprint for i in pooled
        ]
        assert [i.report.solution for i in serial] == [
            i.report.solution for i in pooled
        ]
        assert [i.report.objective for i in serial] == [
            i.report.objective for i in pooled
        ]

    def test_thread_pool_matches_serial(self):
        instances = _instances()
        serial = solve_many(instances, "maxis-layers", executor="serial")
        with ThreadPoolExecutor(max_workers=2) as pool:
            threaded = solve_many(instances, "maxis-layers",
                                  executor=pool, workers=2)
        assert [i.report.solution for i in serial] == [
            i.report.solution for i in threaded
        ]

    @pytest.mark.parametrize("executor,workers,expected", [
        (None, None, ("serial", 1)),
        ("process", 1, ("serial", 1)),
        (None, 2, ("process", 2)),
        ("pool", None, ("external", 1)),
    ])
    def test_report_records_what_ran(self, executor, workers, expected):
        # A single-worker pool runs in-process, and an executor instance
        # is recorded as "external" with the worker count it was given.
        instances = _instances(2)
        if executor == "pool":
            with ThreadPoolExecutor(max_workers=2) as pool:
                batch = solve_many(instances, "maxis-layers",
                                   executor=pool, workers=workers)
        else:
            batch = solve_many(instances, "maxis-layers",
                               executor=executor, workers=workers)
        assert (batch.backend, batch.workers) == expected
        assert batch.summary()["backend"] == expected[0]
        assert len(batch.ok) == 2

    def test_failure_isolation(self):
        instances = _instances(2)
        batch = solve_many(instances, ["maxis-layers", "no-such-algo"],
                           executor="serial")
        assert len(batch.ok) == 2
        assert len(batch.failures) == 2
        for item in batch.failures:
            assert item.report is None
            assert "no-such-algo" in item.error
        # healthy siblings are untouched
        direct = solve(instances[0], "maxis-layers")
        assert batch.ok[0].report.solution == direct.solution

    def test_item_fingerprints_pinned(self):
        # Batch keys: each task's instance fingerprint.
        batch = solve_many(_instances(count=2),
                           ["maxis-layers", "maxis-greedy"])
        assert [item.fingerprint for item in batch] == [
            "58633c542e714b13", "58633c542e714b13",
            "af586cfd40e7c65f", "af586cfd40e7c65f",
        ]


class TestBatchReport:
    def test_summary_aggregates(self):
        batch = solve_many(_instances(), "maxis-layers", executor="serial")
        summary = batch.summary()
        objectives = [item.report.objective for item in batch]
        assert summary["tasks"] == 3
        assert summary["ok"] == 3
        assert summary["failed"] == 0
        assert summary["objective"]["total"] == sum(objectives)
        assert summary["objective"]["min"] == min(objectives)
        assert summary["objective"]["max"] == max(objectives)
        assert summary["rounds_total"] == sum(
            item.report.rounds for item in batch
        )
        assert summary["messages_total"] > 0

    def test_get_by_fingerprint(self):
        batch = solve_many(_instances(2), "maxis-layers", executor="serial")
        item = batch.items[1]
        assert batch.get(item.fingerprint, "maxis-layers") is item
        with pytest.raises(KeyError):
            batch.get("ffffffffffffffff", "maxis-layers")

    def test_reports_and_latencies_cover_successes_only(self):
        batch = solve_many(_instances(2), ["maxis-layers", "no-such-algo"],
                           executor="serial")
        assert len(batch.reports) == 2
        assert len(batch.latencies()) == 2
        assert all(sec >= 0 for sec in batch.latencies())
        assert batch.elapsed > 0
        assert batch.trials_per_second() > 0


class TestWarmStart:
    """Resuming a budgeted batch: each truncated item through ``resume``."""

    def _grid(self, budget):
        from dataclasses import replace

        return [
            replace(random_instance("matching", n=20, p=0.3, seed=s),
                    max_rounds=budget)
            for s in (1, 2, 3)
        ]

    def test_truncated_batch_resumes_bit_identically(self):
        cut = solve_many(self._grid(8), "matching-proposal",
                         executor="serial")
        assert len(cut.truncated) == 3  # the budget bit every task
        cold = solve_many(self._grid(None), "matching-proposal",
                          executor="serial")
        for item, instance, cold_item in zip(cut, self._grid(None), cold):
            resumed = resume(item.report, instance=instance)
            assert resumed.status == "complete"
            assert resumed.solution == cold_item.report.solution
            assert resumed.rounds == cold_item.report.rounds
            assert resumed.objective == cold_item.report.objective

    def test_cold_batch_summary_keeps_historical_shape(self):
        summary = solve_many(self._grid(None), "matching-proposal",
                             executor="serial").summary()
        assert list(summary) == [
            "tasks", "ok", "failed", "statuses", "backend", "workers",
            "rounds_total", "messages_total", "bits_total", "objective",
        ]
