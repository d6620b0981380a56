"""FaultPlan: deterministic decisions, validation, (de)serialisation."""

from __future__ import annotations

import json
import threading

import pytest

from repro.errors import FaultPlanError, TransientFault
from repro.faults import (
    FAULT_PLAN_FORMAT,
    SITES,
    FaultPlan,
    SiteRule,
    make_fault,
)


def _decisions(plan, site, scopes, rolls=20):
    return {scope: [plan.roll(site, scope) for _ in range(rolls)]
            for scope in scopes}


class TestDeterminism:
    def test_same_seed_same_decisions(self):
        scopes = [f"job-{i:06d}-abc" for i in range(5)]
        first = _decisions(
            FaultPlan(seed=7, sites={"worker.transient": {"rate": 0.4}}),
            "worker.transient", scopes)
        second = _decisions(
            FaultPlan(seed=7, sites={"worker.transient": {"rate": 0.4}}),
            "worker.transient", scopes)
        assert first == second
        assert any(any(fired) for fired in first.values())

    def test_different_seeds_differ(self):
        scopes = [f"s{i}" for i in range(8)]
        a = _decisions(
            FaultPlan(seed=0, sites={"worker.transient": {"rate": 0.5}}),
            "worker.transient", scopes)
        b = _decisions(
            FaultPlan(seed=1, sites={"worker.transient": {"rate": 0.5}}),
            "worker.transient", scopes)
        assert a != b

    def test_scheduling_order_does_not_change_decisions(self):
        """Interleaving scopes across threads yields the same per-scope
        decision sequences as rolling them sequentially — the contract
        that makes BENCH_faults.json byte-reproducible."""

        sites = {"worker.transient": {"rate": 0.5}}
        scopes = [f"job{i}" for i in range(6)]
        sequential = _decisions(FaultPlan(seed=3, sites=sites),
                                "worker.transient", scopes)
        plan = FaultPlan(seed=3, sites=sites)
        results = {}

        def worker(scope):
            results[scope] = [plan.roll("worker.transient", scope)
                              for _ in range(20)]

        threads = [threading.Thread(target=worker, args=(scope,))
                   for scope in scopes]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert results == sequential

    def test_rate_zero_never_fires_rate_one_always(self):
        plan = FaultPlan(seed=0, sites={
            "journal.write": {"rate": 0.0},
            "worker.transient": {"rate": 1.0},
        })
        assert not any(plan.roll("journal.write", "s")
                       for _ in range(50))
        assert all(plan.roll("worker.transient", "s")
                   for _ in range(50))

    def test_inactive_site_never_fires(self):
        plan = FaultPlan(seed=0, sites={"journal.write": {"rate": 1.0}})
        assert plan.active("journal.write")
        assert not plan.active("worker.stall")
        assert plan.rule("worker.stall") is None
        assert not plan.roll("worker.stall", "s")
        plan.maybe_raise("worker.stall", "s")  # no-op, must not raise


class TestAfterAndLimit:
    def test_after_fires_exactly_on_nth_roll_per_scope(self):
        plan = FaultPlan(seed=0,
                         sites={"dispatcher.death": {"after": 3}})
        for scope in ("a", "b"):
            fired = [plan.roll("dispatcher.death", scope)
                     for _ in range(6)]
            assert fired == [False, False, True, False, False, False]

    def test_limit_caps_total_fires_across_scopes(self):
        plan = FaultPlan(seed=0, sites={
            "worker.transient": {"rate": 1.0, "limit": 2}})
        fired = [plan.roll("worker.transient", f"s{i}")
                 for i in range(5)]
        assert fired == [True, True, False, False, False]
        assert plan.stats()["fires"]["worker.transient"] == 2

    def test_stats_counts_checks_and_fires(self):
        plan = FaultPlan(seed=0, sites={
            "worker.transient": {"rate": 1.0}})
        for _ in range(3):
            plan.roll("worker.transient", "s")
        stats = plan.stats()
        assert stats["seed"] == 0
        assert stats["sites"] == ["worker.transient"]
        assert stats["checks"]["worker.transient"] == 3
        assert stats["fires"]["worker.transient"] == 3


class TestValidation:
    def test_unknown_site_rejected(self):
        with pytest.raises(FaultPlanError, match="unknown fault site"):
            FaultPlan(sites={"journal.wirte": {"rate": 0.5}})

    def test_unknown_rule_key_rejected(self):
        with pytest.raises(FaultPlanError, match="unknown rule keys"):
            FaultPlan(sites={"journal.write": {"rte": 0.5}})

    @pytest.mark.parametrize("rule", [
        {"rate": -0.1}, {"rate": 1.5}, {"after": 0},
        {"limit": -1}, {"stall_s": -1.0},
    ])
    def test_bad_rule_values_rejected(self, rule):
        with pytest.raises(FaultPlanError):
            FaultPlan(sites={"worker.stall": rule})


class TestSerialisation:
    def test_roundtrip(self):
        plan = FaultPlan(seed=11, sites={
            "worker.transient": {"rate": 0.3, "limit": 4},
            "worker.stall": {"rate": 0.2, "stall_s": 1.5},
            "dispatcher.death": {"after": 2},
        })
        data = plan.to_dict()
        assert data["format"] == FAULT_PLAN_FORMAT
        clone = FaultPlan.from_dict(data)
        assert clone.seed == plan.seed
        assert clone.sites == plan.sites
        scopes = ["x", "y"]
        assert _decisions(plan, "worker.transient", scopes) == \
            _decisions(clone, "worker.transient", scopes)

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps({
            "format": FAULT_PLAN_FORMAT, "seed": 4,
            "sites": {"journal.write": {"rate": 1.0}},
        }))
        plan = FaultPlan.load(str(path))
        assert plan.seed == 4
        assert plan.active("journal.write")

    def test_load_rejects_missing_and_malformed(self, tmp_path):
        with pytest.raises(FaultPlanError, match="cannot read"):
            FaultPlan.load(str(tmp_path / "absent.json"))
        bad = tmp_path / "bad.json"
        bad.write_text("{torn")
        with pytest.raises(FaultPlanError, match="cannot read"):
            FaultPlan.load(str(bad))
        foreign = tmp_path / "foreign.json"
        foreign.write_text('{"format": "other/1", "sites": {}}')
        with pytest.raises(FaultPlanError, match="not a"):
            FaultPlan.load(str(foreign))


class TestMakeFault:
    def test_typed_per_site(self):
        import errno

        exc = make_fault("journal.write")
        assert isinstance(exc, OSError)
        assert exc.errno == errno.ENOSPC
        assert isinstance(make_fault("worker.transient"), TransientFault)
        for site in ("journal.tmp", "worker.stall", "stream.disconnect",
                     "dispatcher.death"):
            fault = make_fault(site)
            assert isinstance(fault, RuntimeError)
            assert site in str(fault)

    def test_maybe_raise_raises_configured_exception(self):
        plan = FaultPlan(sites={"worker.transient": {"rate": 1.0}})
        with pytest.raises(TransientFault, match="injected fault"):
            plan.maybe_raise("worker.transient", "s")

    def test_every_registered_site_has_a_fault(self):
        for site in SITES:
            assert isinstance(make_fault(site), Exception)


class TestSiteRule:
    def test_defaults(self):
        rule = SiteRule()
        assert rule.rate == 0.0
        assert rule.after is None
        assert rule.limit is None
        assert rule.stall_s == 0.05
