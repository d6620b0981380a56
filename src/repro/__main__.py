"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``maxis``     run a MaxIS algorithm on a generated workload
``matching``  run a matching algorithm on a generated workload
``resume``    continue a truncated run from a ``--save-state`` file
``serve``     run the long-lived solver service (HTTP job daemon with
              SLA budgets, checkpoint streaming, crash-safe resume)
``bench``     run a registered experiment and emit a JSON artifact
``info``      print the library's algorithm inventory (``--json`` for
              the machine-readable :mod:`repro.api` registry)

The ``maxis`` and ``matching`` commands are thin views over the
:mod:`repro.api` algorithm registry: every ``--algorithm`` choice is a
registered :class:`~repro.api.AlgorithmSpec`, dispatched through
:func:`repro.api.solve`.  With ``--max-rounds`` a run may stop early
(``status=truncated``); adding ``--save-state FILE`` persists the
checkpoint, and ``python -m repro resume FILE`` warm-starts from it —
optionally under a new (cumulative) ``--max-rounds`` budget, hopping as
many times as needed until the run completes.  ``--backend array``
selects the vectorized simulator backend (results are bit-identical;
resume files are backend-agnostic).

Examples::

    python -m repro maxis --algorithm layers --nodes 60 --max-weight 64
    python -m repro maxis --nodes 200 --max-rounds 6 --save-state cp.json
    python -m repro resume cp.json --max-rounds 12 --save-state cp.json
    python -m repro resume cp.json
    python -m repro matching --algorithm fast2eps --nodes 40 --eps 0.5
    python -m repro matching --algorithm oneeps --nodes 30 --export out.csv
    python -m repro info --json
    python -m repro bench --list
    python -m repro bench smoke --json -
    python -m repro bench table1 --section t1_1a --output out/table1.json
    python -m repro bench --validate BENCH_smoke.json
    python -m repro bench --diff OLD_smoke.json NEW_smoke.json
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from .analysis import render_artifact, render_table, write_rows
from .api import cli_names, list_algorithms, solve
from .api.persist import (
    RESUME_FILE_FORMAT,
    instance_from_workload,
    resume_envelope,
    write_envelope,
)
from .congest import BACKENDS
from .errors import InvalidInstance

MAXIS_ALGORITHMS = cli_names("maxis")
MATCHING_ALGORITHMS = cli_names("matching")

#: Exact oracles are exponential (MWIS) or cubic (Edmonds); cap where we
#: compute reference optima by default.
ORACLE_NODE_LIMIT = 60


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Distributed MaxIS / matching approximation "
                    "(Bar-Yehuda et al., PODC 2017 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def run_options(p: argparse.ArgumentParser) -> None:
        p.add_argument("--export", type=str, default=None,
                       help="write the result row to a .csv/.json file")
        p.add_argument("--skip-oracle", action="store_true",
                       help="skip the exact-optimum comparison")
        p.add_argument("--max-rounds", type=int, default=None,
                       metavar="K",
                       help="hard round budget: the run stops at K "
                            "rounds with status=truncated instead of "
                            "finishing (cumulative across resume hops)")
        p.add_argument("--save-state", type=str, default=None,
                       metavar="FILE",
                       help="if the run truncates, persist its resume "
                            "state to FILE (continue it with "
                            "'python -m repro resume FILE')")
        p.add_argument("--backend", choices=BACKENDS, default=None,
                       help="simulator backend (default: object engine, "
                            "or the REPRO_BACKEND environment variable; "
                            "'array' vectorizes ported algorithms, "
                            "bit-identical results)")

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--nodes", type=int, default=40)
        p.add_argument("--edge-probability", type=float, default=0.12)
        p.add_argument("--max-weight", type=int, default=64)
        p.add_argument("--seed", type=int, default=0)
        run_options(p)

    maxis = sub.add_parser("maxis", help="maximum weight independent set")
    maxis.add_argument("--algorithm", choices=MAXIS_ALGORITHMS,
                       default="layers")
    common(maxis)

    matching = sub.add_parser("matching", help="maximum (weight) matching")
    matching.add_argument("--algorithm", choices=MATCHING_ALGORITHMS,
                          default="lines")
    matching.add_argument("--eps", type=float, default=0.5)
    common(matching)

    resume = sub.add_parser(
        "resume",
        help="continue a truncated run from a --save-state file",
        description="Warm-start a run persisted by --save-state: the "
                    "workload is regenerated deterministically from the "
                    "recipe in the file, and the algorithm continues "
                    "from the captured checkpoint as if it had never "
                    "stopped (--max-rounds extends the cumulative "
                    "budget; omit it to run to completion).",
    )
    resume.add_argument("state", metavar="FILE",
                        help="resume file written by --save-state")
    run_options(resume)

    bench = sub.add_parser(
        "bench",
        help="run a registered experiment and emit a BENCH_<name>.json "
             "artifact",
    )
    bench.add_argument("experiment", nargs="?", default=None,
                       help="experiment name (see --list)")
    bench.add_argument("--list", action="store_true", dest="list_specs",
                       help="list registered experiments and exit")
    bench.add_argument("--section", action="append", default=None,
                       help="run only this section (repeatable)")
    bench.add_argument("--json", dest="json_out", default=None,
                       metavar="PATH",
                       help="write the JSON artifact to PATH; '-' emits "
                            "pure JSON on stdout and suppresses the "
                            "rendered tables")
    bench.add_argument("--output", default=None, metavar="PATH",
                       help="artifact path (default BENCH_<name>.json; "
                            "alias of --json PATH, pass only one)")
    bench.add_argument("--no-artifact", action="store_true",
                       help="do not write any artifact file")
    bench.add_argument("--workers", type=int, default=None, metavar="N",
                       help="fan trials across N worker processes "
                            "(default serial; artifacts are "
                            "byte-identical at any worker count)")
    bench.add_argument("--validate", default=None, metavar="FILE",
                       help="validate an existing artifact file and exit")
    bench.add_argument("--render", default=None, metavar="FILE",
                       help="render an existing artifact file as tables "
                            "and exit (no experiment is run)")
    bench.add_argument("--diff", nargs=2, default=None,
                       metavar=("OLD", "NEW"),
                       help="diff two artifact files (check regressions, "
                            "row drift) and exit; non-zero exit iff a "
                            "check regressed")

    info = sub.add_parser("info", help="print the algorithm inventory")
    info.add_argument("--json", action="store_true", dest="json_registry",
                      help="emit the machine-readable algorithm registry")

    serve = sub.add_parser(
        "serve",
        help="run the long-lived solver service (HTTP job daemon)",
        description="Async HTTP daemon over the anytime/resume stack: "
                    "POST /jobs submits a workload spec (optionally "
                    "with max_rounds / time_budget_s SLA budgets), "
                    "GET /jobs/<id> polls the latest checkpoint, "
                    "GET /jobs/<id>/stream follows per-phase progress, "
                    "and --state-dir journals every checkpoint so a "
                    "killed daemon restarts bit-identically.",
    )
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8765,
                       help="bind port (default 8765; 0 = ephemeral)")
    serve.add_argument("--workers", type=int, default=2, metavar="N",
                       help="solver worker threads (default 2)")
    serve.add_argument("--state-dir", default=None, metavar="DIR",
                       help="journal directory for crash-safe resume "
                            "(no persistence when omitted)")
    serve.add_argument("--cache-size", type=int, default=128,
                       metavar="N",
                       help="result-cache capacity (default 128; "
                            "0 disables caching)")
    serve.add_argument("--phase-delay", type=float, default=0.0,
                       metavar="SECONDS",
                       help="sleep after every checkpoint (test knob "
                            "for interruption scenarios; default 0)")
    serve.add_argument("--fault-plan", default=None, metavar="FILE",
                       help="arm the deterministic fault-injection "
                            "plane from a repro-fault-plan/1 JSON "
                            "file (chaos drills; default off)")
    serve.add_argument("--watchdog", type=float, default=None,
                       metavar="SECONDS",
                       help="truncate a job to its best certified "
                            "partial after this long without progress "
                            "(default: no watchdog)")
    serve.add_argument("--drain-timeout", type=float, default=10.0,
                       metavar="SECONDS",
                       help="graceful-drain budget on SIGTERM/SIGINT: "
                            "running jobs checkpoint and journal "
                            "before exit (default 10)")
    serve.add_argument("--journal-retain", type=int, default=None,
                       metavar="N",
                       help="compact the journal on startup recovery: "
                            "keep at most N terminal-job files on disk "
                            "(default: keep everything)")
    return parser


def _instance_from_workload(workload: dict, args: argparse.Namespace):
    """Rebuild the CLI's deterministic instance from a workload recipe."""

    return instance_from_workload(workload, backend=args.backend,
                                  max_rounds=args.max_rounds)


def _oracle_wanted(workload: dict, args: argparse.Namespace) -> bool:
    return not args.skip_oracle and (
        workload["problem"] != "maxis"
        or workload["nodes"] <= ORACLE_NODE_LIMIT
    )


def _save_state(path: str, workload: dict, report) -> None:
    """Persist a truncated report's resume envelope (or explain why not)."""

    if report.status != "truncated":
        print(f"run completed; no state written to {path}")
        return
    if report.resume_state is None:
        print("truncated run carries no resume state; nothing written",
              file=sys.stderr)
        return
    write_envelope(path, resume_envelope(workload, report.resume_state))
    print(f"resume state written to {path} "
          f"(continue with: python -m repro resume {path})")


def _run_problem(args: argparse.Namespace, problem: str) -> dict:
    """Run one registered algorithm on a generated workload.

    Thin view over :func:`repro.api.solve`: the graph/weight/algorithm
    seed layout (``seed``, ``seed+1``, ``seed+2``) is preserved by
    :func:`repro.api.random_instance`, so results match the historical
    per-algorithm dispatch bit-for-bit.
    """

    workload = {
        "problem": problem,
        "nodes": args.nodes,
        "edge_probability": args.edge_probability,
        "max_weight": args.max_weight,
        "seed": args.seed,
        "eps": getattr(args, "eps", 0.5),
    }
    instance = _instance_from_workload(workload, args)
    report = solve(instance, args.algorithm, problem=problem)
    if args.save_state is not None:
        _save_state(args.save_state, workload, report)
    return report.as_row(oracle=_oracle_wanted(workload, args))


def _run_resume(args: argparse.Namespace) -> int:
    """``python -m repro resume FILE``: warm-start a persisted run."""

    from .api.persist import load_envelope, resume_envelope_report
    from .errors import ResumeError

    try:
        envelope = load_envelope(args.state)
        report = resume_envelope_report(envelope, backend=args.backend,
                                        max_rounds=args.max_rounds)
    except (ResumeError, InvalidInstance) as exc:
        print(f"resume: {exc}", file=sys.stderr)
        return 1
    workload = envelope["workload"]
    if args.save_state is not None:
        _save_state(args.save_state, workload, report)
    row = report.as_row(oracle=_oracle_wanted(workload, args))
    print(render_table([row]))
    if args.export:
        path = write_rows([row], args.export)
        print(f"exported to {path}")
    return 0


def _run_bench(args: argparse.Namespace) -> int:
    from .experiments import (
        Runner,
        artifact_to_json,
        get_experiment,
        list_experiments,
        load_artifact,
        validate_artifact,
        write_artifact,
    )

    if args.diff is not None:
        from .experiments import diff_artifacts, render_diff

        artifacts = []
        for path in args.diff:
            try:
                artifacts.append(load_artifact(path))
            except (OSError, ValueError) as exc:
                print(f"bench: cannot read artifact {path!r}: {exc}",
                      file=sys.stderr)
                return 1
        diff = diff_artifacts(*artifacts)
        print(render_diff(diff))
        return 1 if diff["regression_count"] else 0

    if args.validate is not None or args.render is not None:
        path = args.validate if args.validate is not None else args.render
        try:
            artifact = load_artifact(path)
        except (OSError, ValueError) as exc:
            print(f"bench: cannot read artifact {path!r}: {exc}",
                  file=sys.stderr)
            return 1
        if args.render is not None:
            print(render_artifact(artifact))
            return 0
        problems = validate_artifact(artifact)
        if problems:
            for problem in problems:
                print(f"invalid: {problem}", file=sys.stderr)
            return 1
        print(f"{args.validate}: valid artifact")
        return 0

    if args.list_specs:
        rows = [
            {
                "experiment": spec.name,
                "sections": len(spec.sections),
                "tags": ",".join(spec.tags),
                "title": spec.title,
            }
            for spec in list_experiments()
        ]
        print(render_table(rows, title="registered experiments"))
        return 0

    if args.experiment is None:
        print("bench: name an experiment or pass --list / --validate",
              file=sys.stderr)
        return 2

    from .experiments import UnknownExperiment

    try:
        spec = get_experiment(args.experiment)
        for name in args.section or ():
            spec.section(name)  # validate names before running anything
    except (UnknownExperiment, KeyError) as exc:
        message = exc.args[0] if exc.args else str(exc)
        print(f"bench: {message}", file=sys.stderr)
        return 2

    if args.json_out not in (None, "-") and args.output is not None:
        print("bench: pass either --json PATH or --output PATH, not both",
              file=sys.stderr)
        return 2

    artifact = Runner(spec, workers=args.workers).run(args.section)

    if args.json_out == "-":
        print(artifact_to_json(artifact), end="")
        return 0 if artifact["summary"]["passed"] else 1

    print(render_artifact(artifact))
    if not args.no_artifact:
        path = write_artifact(artifact, args.json_out or args.output)
        print(f"artifact written to {path}")
    return 0 if artifact["summary"]["passed"] else 1


def _info(as_json: bool = False) -> str:
    """Render the :mod:`repro.api` registry (table or JSON)."""

    from .api import registry_as_json

    if as_json:
        return json.dumps(registry_as_json(), indent=2, sort_keys=True)
    rows = [
        {
            "command": (f"{spec.problem} --algorithm {spec.cli}"
                        if spec.cli is not None
                        else f"solve(·, {spec.name!r})"),
            "paper": spec.paper,
            "guarantee": spec.guarantee,
        }
        for spec in list_algorithms()
    ]
    return render_table(rows, title="repro algorithm inventory")


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "info":
        print(_info(as_json=args.json_registry))
        return 0
    if args.command == "bench":
        return _run_bench(args)
    if args.command == "resume":
        return _run_resume(args)
    if args.command == "serve":
        from .serve import main as serve_main

        return serve_main(args)
    try:
        row = _run_problem(args, args.command)
    except InvalidInstance as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 2
    print(render_table([row]))
    if args.export:
        path = write_rows([row], args.export)
        print(f"exported to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
