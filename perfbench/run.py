"""The repository benchmark: run one workload, check it, print its metrics.

    python3 perfbench/run.py --workload single_large --seed 0 \
        --seconds 15 --trace 0

Run from the repository root.  Workloads: ``single_large``,
``batch_grid``, ``serve_mix``, ``churn_resume`` (see
``perfbench/README.md``).  With ``--trace 0`` the last stdout line is a
JSON object carrying every end-to-end metric of ``BENCHMARK.json``;
with ``--trace 1`` the workload runs twice, untraced and then traced,
each in its own interpreter, and the line carries every per-layer
metric.  ``--smoke`` shrinks every input to a tiny size (the
self-test).  Exits nonzero, printing no result, when the sources or the
benchmark description are missing or a phase fails.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("single_large", "batch_grid", "serve_mix", "churn_resume")
#: A run must end within this many seconds, both phases included.
RUN_BUDGET_S = 170.0


def run_phase(args, workdir: str, traced: bool, deadline: float) -> dict:
    """One workload phase in a fresh interpreter and its own process
    group, so the daemon and pool workers it starts are stopped with it."""

    command = [sys.executable, os.path.join(HERE, "workloads.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--workdir", workdir]
    if traced:
        command.append("--traced")
    if args.smoke:
        command.append("--smoke")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, env=env,
                            cwd=ROOT, start_new_session=True)
    try:
        stdout, _ = proc.communicate(
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"{args.workload} phase exceeded the run budget")
    finally:
        try:
            # Anything the phase left behind in its group goes too.
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        raise RuntimeError(f"{args.workload} phase exited "
                           f"{proc.returncode}")
    lines = stdout.decode().strip().splitlines()
    if not lines:
        raise RuntimeError(f"{args.workload} phase printed nothing")
    return json.loads(lines[-1])


def end_to_end(phase: dict, peak_rss_mb: float) -> dict:
    return {
        "setup_s": statistics.median(phase["setup_s"]),
        "op_s_p50": phase["op_s_p50"],
        "items_per_s": phase["items_per_s"],
        "ok_frac": 1.0 - phase["failed"] / phase["attempted"],
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer(untraced: dict, traced: dict) -> dict:
    metrics = dict(traced["layers"])
    # The client-side tail is an untraced figure.
    metrics["serve.job_ms_p95"] = untraced["layers"].get(
        "serve.job_ms_p95", 0.0)
    per_item = [phase["busy_s"] / phase["attempted"]
                for phase in (untraced, traced)]
    metrics["trace.overhead_frac"] = (per_item[1] / per_item[0] - 1.0
                                      if per_item[0] else 0.0)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs (the self-test)")
    args = parser.parse_args(argv)
    started = time.monotonic()

    description = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("perfbench: no src/repro here; run from a repository "
              "checkout", file=sys.stderr)
        return 2
    if not os.path.isfile(description):
        print("perfbench: BENCHMARK.json is missing", file=sys.stderr)
        return 2
    with open(description, encoding="utf-8") as handle:
        declared = json.load(handle)
    kind = "per_layer" if args.trace else "end_to_end"
    units = {entry["name"]: entry["unit"] for entry in declared[kind]}

    workdir = os.path.join(ROOT, ".perfbench", f"run-{os.getpid()}")
    os.makedirs(workdir)
    deadline = started + RUN_BUDGET_S
    try:
        untraced = run_phase(args, workdir, False, deadline)
        phases = [untraced]
        # Children reaped so far: the untraced phase and, through it,
        # the daemon or pool workers it started.
        peak_rss_mb = resource.getrusage(
            resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
        if args.trace:
            traced = run_phase(args, workdir, True, deadline)
            phases.append(traced)
            shutil.copyfile(
                os.path.join(workdir, "trace.json"),
                os.path.join(ROOT, ".perfbench",
                             f"trace-{args.workload}.json"))
            values = per_layer(untraced, traced)
        else:
            values = end_to_end(untraced, peak_rss_mb)
    except (RuntimeError, OSError, ValueError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    missing = sorted(set(units) - set(values))
    if missing:
        print(f"perfbench: metrics not produced: {missing}", file=sys.stderr)
        return 1
    for phase in phases:
        for problem in phase["problems"]:
            print(f"perfbench: check failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": all(phase["correct"] for phase in phases),
        "attempted": sum(phase["attempted"] for phase in phases),
        "failed": sum(phase["failed"] for phase in phases),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
