"""JobManager lifecycle: queueing, budgets, cache, journal, recovery."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from dataclasses import replace

import pytest

from repro.api import random_instance, solve, solve_iter
from repro.api.persist import RESUME_FILE_FORMAT
from repro.serve.daemon import ServerConfig, build_manager
from repro.serve.jobs import JobManager, percentile
from repro.serve.journal import JOB_FILE_FORMAT, Journal, job_record
from repro.serve.protocol import SpecError, result_record

MAXIS_SPEC = {
    "workload": {"problem": "maxis", "nodes": 40, "seed": 5},
    "algorithm": "maxis-coloring",
}


def _wait(job, timeout=30.0):
    deadline = time.monotonic() + timeout
    while not job.done:
        if time.monotonic() > deadline:
            raise AssertionError(
                f"job {job.id} stuck in {job.status!r}")
        time.sleep(0.01)
    return job


@pytest.fixture
def manager():
    mgr = JobManager(workers=2, cache_size=8)
    mgr.start()
    yield mgr
    mgr.shutdown()


class TestExecution:
    def test_submit_runs_to_complete(self, manager):
        job = _wait(manager.submit(MAXIS_SPEC))
        assert job.status == "complete"
        assert job.checkpoints > 1
        assert job.result["objective"] > 0
        assert job.result["resume"] is None
        # matches a direct facade solve bit for bit
        direct = result_record(solve(
            random_instance("maxis", n=40, seed=5), "maxis-coloring"))
        assert json.dumps(job.result, sort_keys=True) == \
            json.dumps(direct, sort_keys=True)

    def test_round_budget_truncates_with_resume_state(self, manager):
        job = _wait(manager.submit({**MAXIS_SPEC, "max_rounds": 18}))
        assert job.status == "truncated"
        assert 0 < job.result["rounds"] <= 18
        assert job.result["resume"] is not None
        assert job.result["resume"]["algorithm"] == "maxis-coloring"
        # the truncated record, resume payload included, matches the
        # budgeted facade solve bit for bit
        direct = result_record(solve(
            replace(random_instance("maxis", n=40, seed=5), max_rounds=18),
            "maxis-coloring"))
        assert json.dumps(job.result, sort_keys=True) == \
            json.dumps(direct, sort_keys=True)

    def test_wall_budget_truncates_with_best_partial(self, manager):
        job = _wait(manager.submit({**MAXIS_SPEC, "max_rounds": 1000,
                                    "time_budget_s": 0}))
        assert job.status == "truncated"
        assert job.result["status"] == "truncated"
        assert job.result["bound"] is None

    def test_bad_option_fails_job_not_manager(self, manager):
        job = _wait(manager.submit(
            {**MAXIS_SPEC, "options": {"bogus_kw": 1}}))
        assert job.status == "failed"
        assert "bogus_kw" in job.error
        # the pool survives: a following job still runs
        assert _wait(manager.submit(MAXIS_SPEC)).status == "complete"

    def test_invalid_spec_raises_before_queueing(self, manager):
        with pytest.raises(SpecError):
            manager.submit({"algorithm": "layers"})
        assert manager.stats()["jobs"]["total"] == 0

    def test_cache_hit_serves_instantly(self, manager):
        first = _wait(manager.submit(MAXIS_SPEC))
        second = manager.submit(MAXIS_SPEC)
        assert second.done
        assert second.cache_hit
        assert second.result is first.result
        assert manager.cache.hits == 1

    def test_stats_counters(self, manager):
        _wait(manager.submit(MAXIS_SPEC))
        stats = manager.stats()
        assert stats["jobs"]["total"] == 1
        assert stats["jobs"]["by_status"]["complete"] == 1
        assert stats["queue_depth"] == 0
        assert stats["rounds_total"] > 0
        assert stats["checkpoints_total"] > 1
        assert stats["latency"]["count"] == 1
        assert stats["latency"]["p95_ms"] >= stats["latency"]["p50_ms"]
        assert stats["cache"]["misses"] == 1


class TestPercentile:
    def test_endpoints_and_interpolation(self):
        samples = [4.0, 1.0, 3.0, 2.0]
        assert percentile(samples, 0.0) == 1.0
        assert percentile(samples, 100.0) == 4.0
        assert percentile(samples, 50.0) == 2.5
        assert percentile([7.0], 95.0) == 7.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            percentile([], 50.0)


def test_stats_does_not_import_the_experiment_layer():
    """The daemon serves ``GET /stats`` without loading the benchmark
    catalog: the serve layer sits below ``repro.experiments``."""

    code = (
        "import sys\n"
        "from repro.serve.jobs import JobManager\n"
        "JobManager(workers=1).stats()\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m.startswith('repro.experiments')))\n"
    )
    root = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    out = subprocess.run([sys.executable, "-c", code],
                         env={**os.environ, "PYTHONPATH": "src"}, cwd=root,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


class TestJournal:
    def test_terminal_record_written(self, tmp_path):
        mgr = JobManager(workers=1, state_dir=str(tmp_path))
        mgr.start()
        try:
            job = _wait(mgr.submit(MAXIS_SPEC))
            with open(tmp_path / f"{job.id}.json") as handle:
                record = json.load(handle)
        finally:
            mgr.shutdown()
        assert record["format"] == JOB_FILE_FORMAT
        assert record["status"] == "complete"
        assert record["result"] == job.result

    def test_truncated_job_journals_cli_compatible_envelope(
            self, tmp_path):
        mgr = JobManager(workers=1, state_dir=str(tmp_path))
        mgr.start()
        try:
            job = _wait(mgr.submit({**MAXIS_SPEC, "max_rounds": 18}))
            with open(tmp_path / f"{job.id}.json") as handle:
                record = json.load(handle)
        finally:
            mgr.shutdown()
        envelope = record["envelope"]
        assert envelope["format"] == RESUME_FILE_FORMAT
        assert envelope["workload"] == MAXIS_SPEC["workload"] | {
            "edge_probability": 0.12, "max_weight": 64, "eps": 0.5,
        }
        # the envelope is directly consumable by the shared resume path
        from repro.api.persist import resume_envelope_report

        report = resume_envelope_report(envelope)
        direct = solve(random_instance("maxis", n=40, seed=5),
                       "maxis-coloring")
        assert report.solution == direct.solution
        assert report.rounds == direct.rounds

    def test_replay_skips_garbage_files(self, tmp_path):
        journal = Journal(str(tmp_path))
        (tmp_path / "torn.json").write_text("{not json")
        (tmp_path / "foreign.json").write_text('{"format": "other/1"}')
        (tmp_path / "notes.txt").write_text("hi")
        journal.write(job_record(
            "job-000007-abc", dict(MAXIS_SPEC, max_rounds=None,
                                   time_budget_s=None, options={}),
            "queued"))
        replayed = list(journal.replay())
        assert [job_id for job_id, _ in replayed] == ["job-000007-abc"]


class TestJournalCompaction:
    def _seed_journal(self, tmp_path, terminal=5, queued=1):
        journal = Journal(str(tmp_path))
        spec = dict(MAXIS_SPEC, max_rounds=None, time_budget_s=None,
                    options={})
        for seq in range(1, terminal + 1):
            journal.write(job_record(
                f"job-{seq:06d}-abc", spec, "complete", rounds=3))
        for seq in range(terminal + 1, terminal + queued + 1):
            journal.write(job_record(
                f"job-{seq:06d}-abc", spec, "queued"))

    def test_recover_prunes_oldest_terminal_files(self, tmp_path):
        self._seed_journal(tmp_path, terminal=5, queued=1)
        mgr = JobManager(workers=1, state_dir=str(tmp_path),
                         journal_retain=2)
        counts = mgr.recover()
        assert counts["pruned"] == 3
        assert counts["restored"] == 5
        assert counts["requeued"] == 1
        remaining = sorted(p.name for p in tmp_path.glob("*.json"))
        # Oldest terminal journals are compacted away; the newest two
        # and the still-queued job's record survive.
        assert remaining == ["job-000004-abc.json", "job-000005-abc.json",
                             "job-000006-abc.json"]
        # Compaction only touches files: every job stays in memory.
        assert len(mgr.jobs()) == 6
        assert mgr.stats()["recovery"]["pruned"] == 3

    def test_unbounded_by_default(self, tmp_path):
        self._seed_journal(tmp_path, terminal=4, queued=0)
        mgr = JobManager(workers=1, state_dir=str(tmp_path))
        assert mgr.recover()["pruned"] == 0
        assert len(list(tmp_path.glob("*.json"))) == 4

    def test_negative_retain_rejected(self):
        with pytest.raises(ValueError):
            JobManager(journal_retain=-1)

    def test_config_passes_retain_through(self, tmp_path):
        config = ServerConfig(state_dir=str(tmp_path), journal_retain=0)
        self._seed_journal(tmp_path, terminal=2, queued=0)
        mgr = build_manager(config)
        assert mgr.journal_retain == 0
        assert mgr.recover()["pruned"] == 2
        assert list(tmp_path.glob("*.json")) == []


class TestRecovery:
    def _mid_run_payload(self, max_rounds=1000):
        """A genuine mid-run resume payload, captured like the service
        journals it: from the budgeted checkpoint stream
        (matching-proposal snapshots at every repetition boundary)."""

        from dataclasses import replace

        instance = random_instance("matching", n=40, seed=5)
        stream = solve_iter(replace(instance, max_rounds=max_rounds),
                            "matching-proposal")
        payloads = []
        while True:
            try:
                checkpoint = next(stream)
            except StopIteration:
                break
            if checkpoint.resume_state is not None:
                payloads.append(checkpoint.resume_state)
        assert len(payloads) > 3
        payload = payloads[2]  # a boundary strictly inside the run
        assert 0 < payload["rounds"] < payloads[-1]["rounds"]
        return payload

    def test_interrupted_job_resumes_bit_identically(self, tmp_path):
        spec = {
            "workload": {"problem": "matching", "nodes": 40,
                         "edge_probability": 0.12, "max_weight": 64,
                         "seed": 5, "eps": 0.5},
            "algorithm": "matching-proposal",
            "max_rounds": 1000,
            "time_budget_s": None,
            "options": {},
        }
        journal = Journal(str(tmp_path))
        journal.write(job_record("job-000003-feed", spec, "running",
                                 rounds=12,
                                 payload=self._mid_run_payload()))
        mgr = JobManager(workers=1, state_dir=str(tmp_path))
        counts = mgr.recover()
        assert counts == {"restored": 0, "requeued": 1,
                          "skipped": 0, "swept_tmp": 0, "pruned": 0}
        mgr.start()
        try:
            job = _wait(mgr.get("job-000003-feed"))
        finally:
            mgr.shutdown()
        assert job.recovered
        assert job.status == "complete"
        from dataclasses import replace

        uncut = result_record(solve(
            replace(random_instance("matching", n=40, seed=5),
                    max_rounds=1000),
            "matching-proposal"))
        assert json.dumps(job.result, sort_keys=True) == \
            json.dumps(uncut, sort_keys=True)

    def test_queued_job_without_payload_reruns_cold(self, tmp_path):
        spec = {
            "workload": dict(MAXIS_SPEC["workload"],
                             edge_probability=0.12, max_weight=64,
                             eps=0.5),
            "algorithm": "maxis-coloring",
            "max_rounds": None,
            "time_budget_s": None,
            "options": {},
        }
        Journal(str(tmp_path)).write(
            job_record("job-000001-cafe", spec, "queued"))
        mgr = JobManager(workers=1, state_dir=str(tmp_path))
        assert mgr.recover()["requeued"] == 1
        mgr.start()
        try:
            job = _wait(mgr.get("job-000001-cafe"))
        finally:
            mgr.shutdown()
        direct = result_record(solve(
            random_instance("maxis", n=40, seed=5), "maxis-coloring"))
        assert json.dumps(job.result, sort_keys=True) == \
            json.dumps(direct, sort_keys=True)

    def test_terminal_records_restore_and_seed_cache(self, tmp_path):
        mgr = JobManager(workers=1, state_dir=str(tmp_path))
        mgr.start()
        try:
            job = _wait(mgr.submit(MAXIS_SPEC))
        finally:
            mgr.shutdown()
        fresh = JobManager(workers=1, state_dir=str(tmp_path))
        counts = fresh.recover()
        assert counts == {"restored": 1, "requeued": 0,
                          "skipped": 0, "swept_tmp": 0, "pruned": 0}
        restored = fresh.get(job.id)
        assert restored.status == "complete"
        assert restored.recovered
        fresh.start()
        try:
            rerun = fresh.submit(MAXIS_SPEC)
        finally:
            fresh.shutdown()
        assert rerun.cache_hit
        assert rerun.result == job.result

    def test_new_ids_continue_past_recovered_sequence(self, tmp_path):
        mgr = JobManager(workers=1, state_dir=str(tmp_path))
        mgr.start()
        try:
            job = _wait(mgr.submit(MAXIS_SPEC))
        finally:
            mgr.shutdown()
        assert job.id.startswith("job-000001-")
        fresh = JobManager(workers=1, state_dir=str(tmp_path))
        fresh.recover()
        fresh.start()
        try:
            nxt = fresh.submit(MAXIS_SPEC)
        finally:
            fresh.shutdown()
        assert nxt.id.startswith("job-000002-")


class TestConfig:
    def test_build_manager_applies_config(self, tmp_path):
        config = ServerConfig(workers=3, state_dir=str(tmp_path),
                              cache_size=5, phase_delay_s=0.01)
        mgr = build_manager(config)
        assert mgr.workers == 3
        assert mgr.cache.maxsize == 5
        assert mgr.phase_delay_s == 0.01
        assert mgr.journal.enabled
        assert os.path.isdir(tmp_path)

    def test_worker_count_validated(self):
        with pytest.raises(ValueError):
            JobManager(workers=0)
