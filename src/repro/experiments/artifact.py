"""Versioned JSON benchmark artifacts (``BENCH_<name>.json``).

The artifact is the machine-readable output of one experiment run.  Its
schema is versioned by the ``"schema"`` field (currently
``"repro-bench/1"``); consumers — ``repro.analysis`` table rendering
and the CI smoke-bench gate — must reject artifacts whose schema they
do not understand.

Schema ``repro-bench/1``::

    {
      "schema": "repro-bench/1",
      "experiment": "<name>",
      "title": "...",
      "description": "...",
      "sections": [
        {
          "name": "...", "title": "...", "measurement": "...",
          "render": "table" | "series",
          "render_params": {...},
          "trials": [
            {"cell": <grid index>, "params": {...}, "seed": <int>,
             "measures": {...},          # adapter output, JSON scalars
             "metrics": {...} | null}    # NetworkMetrics snapshot
          ],
          "rows": [{...}, ...],          # reduced table rows
          "checks": [
            {"name": "...", "passed": true|false, "detail": "..."}
          ]
        }
      ],
      "summary": {"sections": N, "trials": N,
                  "checks_total": N, "checks_failed": N, "passed": bool}
    }

Determinism contract: the same spec and seeds produce a
**byte-identical** JSON artifact across processes, worker counts and
platforms — no timestamps, no host information, no wall-clock, keys
always sorted.  Wall-clock speed is measured by ``perfbench/``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional, Union

SCHEMA = "repro-bench/1"

#: Keys every section record must carry.
_SECTION_KEYS = ("name", "title", "measurement", "render", "trials",
                 "rows", "checks")
_TRIAL_KEYS = ("cell", "params", "seed", "measures")
_CHECK_KEYS = ("name", "passed", "detail")


def artifact_path(name: str, directory: Union[str, Path, None] = None) -> Path:
    """The canonical artifact filename for experiment ``name``."""

    base = Path(directory) if directory is not None else Path(".")
    return base / f"BENCH_{name}.json"


def artifact_to_json(artifact: Dict) -> str:
    """Serialize deterministically (sorted keys, 2-space indent, LF)."""

    return json.dumps(artifact, indent=2, sort_keys=True,
                      allow_nan=False) + "\n"


def write_artifact(artifact: Dict,
                   path: Union[str, Path, None] = None) -> Path:
    """Write ``artifact`` to ``path`` (default ``BENCH_<name>.json``)."""

    if path is None:
        path = artifact_path(artifact["experiment"])
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(artifact_to_json(artifact), encoding="utf-8")
    return path


def load_artifact(path: Union[str, Path]) -> Dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))


def validate_artifact(artifact: object) -> List[str]:
    """Return a list of schema problems (empty means valid).

    This is the structural gate CI runs against the smoke artifact: it
    checks the schema version, the shape of every section/trial/check
    record, and that the summary's counters are consistent with the
    section contents (so a truncated or hand-edited artifact cannot
    sneak past the gate).
    """

    problems: List[str] = []
    if not isinstance(artifact, dict):
        return [f"artifact must be a JSON object, got {type(artifact).__name__}"]
    if artifact.get("schema") != SCHEMA:
        problems.append(
            f"schema mismatch: expected {SCHEMA!r}, got "
            f"{artifact.get('schema')!r}"
        )
    if not isinstance(artifact.get("experiment"), str):
        problems.append("missing/invalid 'experiment' name")
    sections = artifact.get("sections")
    if not isinstance(sections, list) or not sections:
        problems.append("'sections' must be a non-empty list")
        sections = []
    trials_seen = 0
    checks_seen = 0
    checks_failed = 0
    for i, section in enumerate(sections):
        where = f"sections[{i}]"
        if not isinstance(section, dict):
            problems.append(f"{where} is not an object")
            continue
        for key in _SECTION_KEYS:
            if key not in section:
                problems.append(f"{where} missing key {key!r}")
        for j, trial in enumerate(section.get("trials", ())):
            if not isinstance(trial, dict):
                problems.append(f"{where}.trials[{j}] is not an object")
                continue
            trials_seen += 1
            for key in _TRIAL_KEYS:
                if key not in trial:
                    problems.append(f"{where}.trials[{j}] missing {key!r}")
        rows = section.get("rows", ())
        if not isinstance(rows, list):
            problems.append(f"{where}.rows must be a list")
        for j, check in enumerate(section.get("checks", ())):
            if not isinstance(check, dict):
                problems.append(f"{where}.checks[{j}] is not an object")
                continue
            checks_seen += 1
            for key in _CHECK_KEYS:
                if key not in check:
                    problems.append(f"{where}.checks[{j}] missing {key!r}")
            if check.get("passed") is False:
                checks_failed += 1
            elif check.get("passed") is not True:
                problems.append(
                    f"{where}.checks[{j}].passed must be a boolean"
                )
    summary = artifact.get("summary")
    if not isinstance(summary, dict):
        problems.append("missing 'summary' object")
    else:
        expected = {
            "sections": len(sections),
            "trials": trials_seen,
            "checks_total": checks_seen,
            "checks_failed": checks_failed,
            "passed": checks_failed == 0,
        }
        for key, value in expected.items():
            if summary.get(key) != value:
                problems.append(
                    f"summary.{key} is {summary.get(key)!r}, "
                    f"expected {value!r}"
                )
    return problems


def metrics_snapshot(metrics) -> Optional[Dict]:
    """Serialize a :class:`NetworkMetrics` into a stable JSON object."""

    if metrics is None:
        return None
    return {
        "rounds": metrics.rounds,
        "messages": metrics.messages,
        "bits": metrics.bits,
        "max_bits_per_edge_round": metrics.max_bits_per_edge_round,
        "violations": metrics.violations,
        "round_breakdown": {
            str(label): rounds
            for label, rounds in sorted(metrics.round_breakdown.items())
        },
    }
