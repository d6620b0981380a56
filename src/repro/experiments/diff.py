"""Artifact diffing across commits (``python -m repro bench --diff``).

``BENCH_*.json`` artifacts are byte-deterministic by design, so a
plain ``cmp`` answers "did anything change?".  This module answers the
follow-up questions: *what* changed, and is any of it a regression?

* **Check regressions** — a check that passed in the old artifact and
  fails in the new one, a newly added check that fails, or a
  previously *passing* check that disappeared (deleting a check must
  not launder a failure).  These are the gate: ``bench --diff OLD
  NEW`` exits non-zero iff any exist.
* **Row drift** — per-section, per-row field deltas (absolute and
  percentage for numeric fields), e.g. a round count or an
  approximation ratio that moved between commits.

The diff never mutates or re-runs anything; it is pure artifact
archaeology, so it works on artifacts recorded by CI for commits you
never checked out.
"""

from __future__ import annotations

from numbers import Number
from typing import Dict, List

#: Section outcome labels used in the diff record.
_ADDED = "added"
_REMOVED = "removed"


def _is_number(value) -> bool:
    return isinstance(value, Number) and not isinstance(value, bool)


def _delta(old, new) -> Dict:
    """One field-level delta record (numeric deltas when possible)."""

    record: Dict = {"old": old, "new": new}
    if _is_number(old) and _is_number(new):
        record["delta"] = new - old
        if old:
            record["pct"] = 100.0 * (new - old) / abs(old)
    return record


def _row_drift(old_rows: List[dict], new_rows: List[dict]) -> List[Dict]:
    """Field-by-field comparison of two row lists, zipped by index."""

    drift: List[Dict] = []
    for index, (old_row, new_row) in enumerate(zip(old_rows, new_rows)):
        if not isinstance(old_row, dict) or not isinstance(new_row, dict):
            continue
        for field in sorted(set(old_row) | set(new_row)):
            old_value = old_row.get(field)
            new_value = new_row.get(field)
            if old_value != new_value:
                drift.append({"row": index, "field": field,
                              **_delta(old_value, new_value)})
    if len(old_rows) != len(new_rows):
        drift.append({"row": None, "field": "<row count>",
                      **_delta(len(old_rows), len(new_rows))})
    return drift


def diff_artifacts(old: Dict, new: Dict) -> Dict:
    """Compare two ``repro-bench/1`` artifacts.

    Returns a JSON-able record with ``regressions`` (checks that went
    passing → failing), ``added_failing`` (checks that only exist in
    the new artifact and fail), ``fixes`` (failing → passing),
    per-section ``drift`` rows, and the aggregate ``regression_count`` the CLI turns into its exit code.
    """

    old_sections = {s.get("name"): s for s in old.get("sections", ())}
    new_sections = {s.get("name"): s for s in new.get("sections", ())}

    regressions: List[Dict] = []
    added_failing: List[Dict] = []
    removed_checks: List[Dict] = []
    fixes: List[Dict] = []
    sections: List[Dict] = []

    for name in sorted(set(old_sections) | set(new_sections), key=str):
        if name not in new_sections:
            sections.append({"name": name, "status": _REMOVED, "drift": []})
            continue
        if name not in old_sections:
            sections.append({"name": name, "status": _ADDED, "drift": []})
            for check in new_sections[name].get("checks", ()):
                if check.get("passed") is False:
                    added_failing.append({
                        "section": name, "check": check.get("name"),
                        "detail": check.get("detail", ""),
                    })
            continue

        old_section = old_sections[name]
        new_section = new_sections[name]
        old_checks = {c.get("name"): c for c in old_section.get("checks", ())}
        new_checks = {c.get("name"): c for c in new_section.get("checks", ())}
        for check_name, new_check in new_checks.items():
            old_check = old_checks.get(check_name)
            record = {"section": name, "check": check_name,
                      "detail": new_check.get("detail", "")}
            if old_check is None:
                if new_check.get("passed") is False:
                    added_failing.append(record)
            elif old_check.get("passed") and not new_check.get("passed"):
                regressions.append(record)
            elif not old_check.get("passed") and new_check.get("passed"):
                fixes.append(record)
        for check_name, old_check in old_checks.items():
            if check_name not in new_checks:
                # A check that silently disappeared is a coverage loss;
                # a *passing* one vanishing gates like a regression
                # (deleting the check must not launder a failure).
                removed_checks.append({
                    "section": name, "check": check_name,
                    "was_passing": bool(old_check.get("passed")),
                })

        drift = _row_drift(list(old_section.get("rows", ())),
                           list(new_section.get("rows", ())))
        status = "changed" if drift else "unchanged"
        sections.append({"name": name, "status": status, "drift": drift})

    removed_passing = sum(1 for r in removed_checks if r["was_passing"])
    return {
        "old_experiment": old.get("experiment"),
        "new_experiment": new.get("experiment"),
        "regressions": regressions,
        "added_failing": added_failing,
        "removed_checks": removed_checks,
        "fixes": fixes,
        "sections": sections,
        "regression_count": (len(regressions) + len(added_failing)
                             + removed_passing),
    }


def render_diff(diff: Dict) -> str:
    """Human-readable rendering of a :func:`diff_artifacts` record."""

    lines: List[str] = []
    old_name = diff.get("old_experiment")
    new_name = diff.get("new_experiment")
    title = old_name if old_name == new_name else f"{old_name} → {new_name}"
    lines.append(f"artifact diff: {title}")
    if old_name != new_name:
        lines.append("warning: artifacts are from different experiments")

    for record in diff["regressions"]:
        lines.append(
            f"REGRESSION {record['section']}.{record['check']}: "
            f"{record['detail']}"
        )
    for record in diff["added_failing"]:
        lines.append(
            f"NEW FAILING {record['section']}.{record['check']}: "
            f"{record['detail']}"
        )
    for record in diff["removed_checks"]:
        label = ("REMOVED CHECK" if record["was_passing"]
                 else "removed check (was failing)")
        lines.append(f"{label} {record['section']}.{record['check']}")
    for record in diff["fixes"]:
        lines.append(f"fixed      {record['section']}.{record['check']}")

    for section in diff["sections"]:
        if section["status"] in (_ADDED, _REMOVED):
            lines.append(f"section {section['name']}: {section['status']}")
            continue
        for entry in section["drift"]:
            where = (f"{section['name']}[{entry['row']}].{entry['field']}"
                     if entry["row"] is not None
                     else f"{section['name']}.{entry['field']}")
            if "pct" in entry:
                lines.append(
                    f"  {where}: {entry['old']} -> {entry['new']} "
                    f"({entry['pct']:+.1f}%)"
                )
            else:
                lines.append(f"  {where}: {entry['old']!r} -> "
                             f"{entry['new']!r}")

    if diff["regression_count"]:
        lines.append(f"{diff['regression_count']} check regression(s)")
    elif len(lines) == 1:
        lines.append("no differences")
    return "\n".join(lines)


__all__ = ["diff_artifacts", "render_diff"]
