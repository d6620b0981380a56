"""Compare the repository benchmark between a base revision and the
working tree, in alternating pairs of runs.

    python3 tools/perfcompare.py --workload single_large --pairs 10 \
        --seed 41 --seconds 20 [--base REV] [--aa]

The base side runs in a scratch ``git worktree`` of ``--base``
(default ``HEAD~1``, the parent of the last commit), removed again at
the end.  Each
pair runs ``perfbench/run.py --workload W --seed S --seconds T`` once in
each tree, the base first on even pairs and the working tree first on
odd ones, with pair ``i`` on seed ``S + i``; ``run.py`` puts its own
tree's ``src`` on the path.  ``--aa`` runs the working tree on both
sides, which shows how far two runs of the same code drift apart.

Per metric the table shows both medians, the base's interquartile
range (linear interpolation between order statistics) as a fraction
of its median, how many pairs the working tree won, and a verdict:

* ``improved``: better in at least 90 % of the pairs, and the median
  better by more than the base's IQR;
* ``regressed``: the median worse than the base's by more than the
  metric's ``BENCHMARK.json`` bound (a fraction of the base median);
  for a per-layer metric, which has no bound, worse by more than the
  IQR in at least 90 % of the pairs;
* ``undecidable``: the base's IQR exceeds the bound, so the runs spread
  too widely to tell;
* ``noise``: none of these.

``--trace 1`` compares the per-layer metrics instead of the end-to-end
ones.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: The share of pairs a side must win for a verdict other than noise.
WIN_SHARE = 0.9


# ----------------------------------------------------------------------
# statistics (pure; unit-tested)
# ----------------------------------------------------------------------
def quartiles(values):
    """``(q1, median, q3)`` with linear interpolation between order
    statistics (numpy's default percentile); a single value is all
    three."""

    if len(values) == 1:
        return (values[0],) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def relative_spread(values) -> float:
    """The IQR as a fraction of the median (``inf`` when the median is
    0 and the values spread)."""

    q1, mid, q3 = quartiles(values)
    if q3 == q1:
        return 0.0
    return (q3 - q1) / abs(mid) if mid else math.inf


def gain(base: float, new: float, better: str) -> float:
    """How much better ``new`` is than ``base`` (negative: worse)."""

    return base - new if better == "lower" else new - base


def wins(base, new, better: str) -> int:
    """The pairs in which ``new`` is strictly better."""

    return sum(gain(b, n, better) > 0 for b, n in zip(base, new))


def verdict(base, new, better: str, bound=None) -> str:
    """``improved``, ``regressed``, ``noise`` or ``undecidable`` for one
    metric's paired runs (see the module docstring)."""

    if len(base) != len(new) or not base:
        raise ValueError("verdict needs equally many runs on each side")
    q1, mid, q3 = quartiles(base)
    spread = q3 - q1
    if bound is not None and relative_spread(base) > bound:
        return "undecidable"
    change = gain(mid, statistics.median(new), better)
    need = math.ceil(WIN_SHARE * len(base))
    if change > spread and wins(base, new, better) >= need:
        return "improved"
    if bound is not None:
        if -change > bound * abs(mid):
            return "regressed"
    elif -change > spread and wins(new, base, better) >= need:
        return "regressed"
    return "noise"


# ----------------------------------------------------------------------
# running
# ----------------------------------------------------------------------
def run_once(tree: str, args, seed: int) -> dict:
    """One ``perfbench/run.py`` run in ``tree``; its metric values."""

    command = [sys.executable, os.path.join("perfbench", "run.py"),
               "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    # run.py puts the tree's own src on the path; an inherited
    # PYTHONPATH could put the other tree's there too.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(command, cwd=tree, env=env, stdout=subprocess.PIPE,
                          text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"run.py in {tree} (seed {seed}) exited "
                           f"{done.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError(f"run.py in {tree} (seed {seed}) failed its checks")
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def run_pairs(base_tree: str, new_tree: str, args):
    """``(base_runs, new_runs)``: one metrics dict per pair and side."""

    base_runs, new_runs = [], []
    for pair in range(args.pairs):
        seed = args.seed + pair
        order = [("base", base_tree), ("new", new_tree)]
        if pair % 2:
            order.reverse()
        for side, tree in order:
            values = run_once(tree, args, seed)
            (base_runs if side == "base" else new_runs).append(values)
            print(f"pair {pair + 1}/{args.pairs} seed {seed} {side}: "
                  + ", ".join(f"{k}={v:.4g}" for k, v in values.items()),
                  file=sys.stderr, flush=True)
    return base_runs, new_runs


def declared_metrics(trace: int):
    """``(name, better, bound)`` of every metric ``BENCHMARK.json``
    declares for the chosen kind of run."""

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        declared = json.load(f)
    kind = "per_layer" if trace else "end_to_end"
    return [(m["name"], m["better"], m.get("bound"))
            for m in declared[kind]]


def table(base_runs, new_runs, metrics) -> str:
    header = (f"{'metric':44s} {'base p50':>11s} {'new p50':>11s} "
              f"{'change':>8s} {'base IQR':>9s} {'wins':>6s}  verdict")
    lines = [header, "-" * len(header)]
    pairs = len(base_runs)
    for name, better, bound in metrics:
        base = [run[name] for run in base_runs if name in run]
        new = [run[name] for run in new_runs if name in run]
        if len(base) != pairs or len(new) != pairs:
            continue
        b, n = statistics.median(base), statistics.median(new)
        change = f"{(n - b) / abs(b):+.1%}" if b else "n/a"
        spread = relative_spread(base)
        lines.append(
            f"{name:44s} {b:11.4g} {n:11.4g} {change:>8s} "
            f"{spread:9.1%} {wins(base, new, better):>3d}/{pairs:<2d}  "
            f"{verdict(base, new, better, bound)}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=41)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--base", default="HEAD~1",
                        help="the revision to compare against")
    parser.add_argument("--aa", action="store_true",
                        help="run the working tree on both sides")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    scratch = None
    if args.aa:
        base_tree, label = ROOT, "working tree (A/A)"
    else:
        scratch = tempfile.mkdtemp(prefix="perfcompare-")
        base_tree, label = os.path.join(scratch, "base"), args.base
        subprocess.run(["git", "-C", ROOT, "worktree", "add", "--detach",
                        base_tree, args.base], check=True,
                       stdout=subprocess.DEVNULL)
    try:
        base_runs, new_runs = run_pairs(base_tree, ROOT, args)
    except RuntimeError as exc:
        print(f"perfcompare: {exc}", file=sys.stderr)
        return 1
    finally:
        if scratch is not None:
            subprocess.run(["git", "-C", ROOT, "worktree", "remove",
                            "--force", base_tree], check=False)
            shutil.rmtree(scratch, ignore_errors=True)
    print(f"{args.workload}: base {label} vs working tree, {args.pairs} "
          f"alternating pairs, seeds {args.seed}-{args.seed + args.pairs - 1}"
          f", {args.seconds:g} s a run")
    print(table(base_runs, new_runs, declared_metrics(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
