"""Artifact diffing: check regressions, row drift, CLI."""

import json

import pytest

from repro.__main__ import main
from repro.experiments import diff_artifacts, render_diff


def artifact(rows=(), checks=(), name="exp"):
    sections = [{
        "name": "s1",
        "title": "section one",
        "measurement": "m",
        "render": "table",
        "render_params": {},
        "trials": [],
        "rows": list(rows),
        "checks": list(checks),
    }]
    return {
        "schema": "repro-bench/1",
        "experiment": name,
        "title": name,
        "description": "",
        "sections": sections,
        "summary": {
            "sections": 1,
            "trials": 0,
            "checks_total": len(checks),
            "checks_failed": sum(1 for c in checks if not c["passed"]),
            "passed": all(c["passed"] for c in checks),
        },
    }


def check(name, passed, detail=""):
    return {"name": name, "passed": passed, "detail": detail}


class TestDiffArtifacts:
    def test_identical_artifacts_have_no_differences(self):
        a = artifact(rows=[{"x": 1}], checks=[check("c", True)])
        diff = diff_artifacts(a, a)
        assert diff["regression_count"] == 0
        assert not diff["regressions"]
        assert all(s["status"] == "unchanged" for s in diff["sections"])
        assert "no differences" in render_diff(diff)

    def test_check_regression_detected(self):
        old = artifact(checks=[check("bound", True)])
        new = artifact(checks=[check("bound", False, "ratio 2.7 > 2.5")])
        diff = diff_artifacts(old, new)
        assert diff["regression_count"] == 1
        assert diff["regressions"][0]["check"] == "bound"
        assert "REGRESSION" in render_diff(diff)

    def test_fix_is_not_a_regression(self):
        old = artifact(checks=[check("bound", False)])
        new = artifact(checks=[check("bound", True)])
        diff = diff_artifacts(old, new)
        assert diff["regression_count"] == 0
        assert diff["fixes"][0]["check"] == "bound"

    def test_removed_passing_check_counts_as_regression(self):
        old = artifact(checks=[check("bound", True)])
        new = artifact(checks=[])
        diff = diff_artifacts(old, new)
        assert diff["regression_count"] == 1
        assert diff["removed_checks"][0] == {
            "section": "s1", "check": "bound", "was_passing": True,
        }
        assert "REMOVED CHECK" in render_diff(diff)

    def test_removed_failing_check_is_surfaced_but_not_gating(self):
        old = artifact(checks=[check("bound", False)])
        new = artifact(checks=[])
        diff = diff_artifacts(old, new)
        assert diff["regression_count"] == 0
        assert diff["removed_checks"][0]["was_passing"] is False
        assert "removed check (was failing)" in render_diff(diff)

    def test_new_failing_check_counts_as_regression(self):
        old = artifact(checks=[])
        new = artifact(checks=[check("fresh", False, "boom")])
        diff = diff_artifacts(old, new)
        assert diff["regression_count"] == 1
        assert diff["added_failing"][0]["check"] == "fresh"

    def test_numeric_row_drift_reports_delta_and_pct(self):
        old = artifact(rows=[{"p50": 2.0, "label": "a"}])
        new = artifact(rows=[{"p50": 3.0, "label": "a"}])
        diff = diff_artifacts(old, new)
        (entry,) = diff["sections"][0]["drift"]
        assert entry["field"] == "p50"
        assert entry["delta"] == pytest.approx(1.0)
        assert entry["pct"] == pytest.approx(50.0)
        assert "+50.0%" in render_diff(diff)

    def test_row_count_change_is_reported(self):
        old = artifact(rows=[{"x": 1}])
        new = artifact(rows=[{"x": 1}, {"x": 2}])
        diff = diff_artifacts(old, new)
        fields = [e["field"] for e in diff["sections"][0]["drift"]]
        assert "<row count>" in fields

    def test_added_and_removed_sections(self):
        old = artifact()
        new = artifact()
        new["sections"][0]["name"] = "s2"
        diff = diff_artifacts(old, new)
        statuses = {s["name"]: s["status"] for s in diff["sections"]}
        assert statuses == {"s1": "removed", "s2": "added"}


class TestCliDiff:
    def write(self, tmp_path, name, doc):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)

    def test_clean_diff_exits_zero(self, tmp_path, capsys):
        a = self.write(tmp_path, "old.json",
                       artifact(checks=[check("c", True)]))
        assert main(["bench", "--diff", a, a]) == 0
        assert "no differences" in capsys.readouterr().out

    def test_regression_exits_nonzero(self, tmp_path, capsys):
        old = self.write(tmp_path, "old.json",
                         artifact(checks=[check("c", True)]))
        new = self.write(tmp_path, "new.json",
                         artifact(checks=[check("c", False, "broke")]))
        assert main(["bench", "--diff", old, new]) == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_unreadable_artifact_reports_error(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.json")
        good = self.write(tmp_path, "old.json", artifact())
        assert main(["bench", "--diff", good, missing]) == 1
        assert "cannot read artifact" in capsys.readouterr().err
