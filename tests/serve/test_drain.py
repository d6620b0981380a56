"""Graceful drain, end to end: SIGTERM the daemon mid-solve and the
job parks at a journaled checkpoint; a restart on the same
``--state-dir`` finishes it byte-identically to a never-stopped run.

The SIGTERM sibling of ``test_crash_resume.py``'s ``kill -9`` test:
there the journal's last checkpoint is all that survives; here the
daemon actively winds down — stops accepting, journals every running
job's freshest resume envelope, prints the drain summary, and exits 0.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import select
import signal
import subprocess
import sys
import threading
import time
from dataclasses import replace

import pytest

from repro.api import random_instance, solve
from repro.serve.jobs import JobManager
from repro.serve.protocol import result_record

JOB_BODY = {
    "workload": {"problem": "matching", "nodes": 40, "seed": 5},
    "algorithm": "matching-proposal",
    "max_rounds": 1000,
}
#: Sleep per checkpoint inside the daemon — keeps the job running long
#: enough that SIGTERM always lands mid-solve.
PHASE_DELAY = 0.25

READY_LINE = re.compile(
    r"repro-serve listening on http://[^:]+:(\d+) "
    r"\(recovered (\d+), requeued (\d+)\)")
DRAINED_LINE = re.compile(
    r"repro-serve drained: (\d+) job\(s\) checkpointed, "
    r"(\d+) still queued, clean=(True|False)")


def _spawn(state_dir):
    env = dict(os.environ)
    env["PYTHONPATH"] = "src"
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--workers", "1", "--state-dir", str(state_dir),
         "--phase-delay", str(PHASE_DELAY),
         "--drain-timeout", "30"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        env=env, cwd=os.path.dirname(os.path.dirname(
            os.path.dirname(os.path.abspath(__file__)))),
    )


def _await_ready(proc, timeout=30.0):
    """Read stdout until the ready line; return (port, recovered,
    requeued)."""

    deadline = time.monotonic() + timeout
    buffer = ""
    os.set_blocking(proc.stdout.fileno(), False)
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            raise AssertionError(
                f"daemon exited early: {buffer + (proc.stdout.read() or '')}")
        ready, _, _ = select.select([proc.stdout], [], [], 0.1)
        if not ready:
            continue
        chunk = proc.stdout.read()
        if chunk:
            buffer += chunk
        match = READY_LINE.search(buffer)
        if match:
            return (int(match.group(1)), int(match.group(2)),
                    int(match.group(3)))
    raise AssertionError(f"no ready line within {timeout}s: {buffer!r}")


def _request(port, method, path, body=None, timeout=30):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        payload = json.dumps(body).encode() if body is not None else None
        conn.request(method, path, body=payload)
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


def _poll(port, job_id, predicate, timeout=60.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        _status, record = _request(port, "GET", f"/jobs/{job_id}")
        if predicate(record):
            return record
        time.sleep(0.02)
    raise AssertionError(f"job {job_id} never satisfied the predicate")


def _kill_dead(proc):
    if proc.poll() is None:
        proc.kill()
    proc.wait(timeout=10)
    proc.stdout.close()


@pytest.fixture
def reference_record():
    instance = replace(random_instance("matching", n=40, seed=5),
                       max_rounds=1000)
    return result_record(solve(instance, "matching-proposal"))


class TestSigtermDrain:
    def test_drain_exits_zero_and_restart_finishes_bit_identically(
            self, tmp_path, reference_record):
        # --- first life: submit, wait until mid-solve, SIGTERM ---
        first = _spawn(tmp_path)
        try:
            port, recovered, requeued = _await_ready(first)
            assert (recovered, requeued) == (0, 0)
            _status, record = _request(port, "POST", "/jobs", JOB_BODY)
            job_id = record["id"]
            mid = _poll(port, job_id, lambda r: r["checkpoints"] >= 3)
            assert mid["status"] == "running", mid["status"]
            first.send_signal(signal.SIGTERM)
            first.wait(timeout=60)
            output = first.stdout.read() or ""
        finally:
            _kill_dead(first)
        assert first.returncode == 0, output
        match = DRAINED_LINE.search(output)
        assert match, f"no drain summary in {output!r}"
        assert int(match.group(1)) == 1  # the running job checkpointed
        assert match.group(3) == "True"

        # the journal holds a non-terminal record with a resume envelope
        with open(tmp_path / f"{job_id}.json") as handle:
            parked = json.load(handle)
        assert parked["status"] == "queued"
        assert parked["envelope"] is not None
        assert 0 < parked["envelope"]["payload"]["rounds"] < \
            reference_record["rounds"]

        # --- second life: recover, finish, compare byte-for-byte ---
        second = _spawn(tmp_path)
        try:
            port, recovered, requeued = _await_ready(second)
            assert requeued == 1
            done = _poll(port, job_id,
                         lambda r: r["status"] == "complete")
            assert json.dumps(done["result"], sort_keys=True) == \
                json.dumps(reference_record, sort_keys=True)
            second.send_signal(signal.SIGTERM)
            second.wait(timeout=60)
        finally:
            _kill_dead(second)
        assert second.returncode == 0


class TestDrainRace:
    def test_a_dispatched_job_not_yet_running_stays_queued(
            self, tmp_path, monkeypatch):
        # Hold the pool task between dispatch and the flip to running,
        # drain, then let it go: the job must not start behind drain's
        # back, and its submit-time journal record stands.
        entered, release = threading.Event(), threading.Event()
        execute = JobManager._execute

        def held(self, job, attempt=1):
            entered.set()
            release.wait(10.0)
            return execute(self, job, attempt)

        monkeypatch.setattr(JobManager, "_execute", held)
        manager = JobManager(workers=1, state_dir=str(tmp_path))
        manager.start()
        try:
            job = manager.submit(JOB_BODY)
            assert entered.wait(10.0)
            stats = manager.drain(timeout_s=5.0)
        finally:
            release.set()
            manager.shutdown(wait=True)
        assert stats["queued"] == 1
        assert stats["drained"] == 0
        assert job.status == "queued"
        assert job.checkpoints == 0
        with open(tmp_path / f"{job.id}.json") as handle:
            assert json.load(handle)["status"] == "queued"
