"""Self-test of the benchmark: every workload at a tiny size.

    python3 -m pytest perfbench -q

Each workload runs untraced and traced with ``--smoke``; the test
asserts that its output checks pass and that every metric named in
``BENCHMARK.json`` is printed with its declared unit.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _f:
    DECLARED = json.load(_f)
WORKLOADS = [entry["name"] for entry in DECLARED["workloads"]]


def run(workload: str, trace: int, cwd: str = ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
         "--workload", workload, "--seed", "0", "--seconds", "0.5",
         "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, cwd=cwd, timeout=180,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_checks_and_metrics(workload, trace):
    proc = run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], proc.stderr
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {entry["name"] for entry in declared}
    for entry in declared:
        metric = result["metrics"][entry["name"]]
        assert metric["unit"] == entry["unit"], entry["name"]
        assert isinstance(metric["value"], (int, float)), entry["name"]
        if not trace:
            assert metric["value"] > 0, entry["name"]
    if trace and workload == "single_large":
        fallbacks = "congest.array_network.kernel.fallbacks_per_op"
        assert result["metrics"][fallbacks]["value"] == 0


def test_refuses_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(WORKLOADS[0], 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
