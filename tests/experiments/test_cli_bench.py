"""CLI round-trip: ``python -m repro bench`` end to end."""

import json

import pytest

from repro.__main__ import main
from repro.experiments import validate_artifact


class TestBenchList:
    def test_list_shows_every_registered_experiment(self, capsys):
        assert main(["bench", "--list"]) == 0
        out = capsys.readouterr().out
        for name in ("table1", "layers", "congestion", "figure1",
                     "nmis_decay", "proposal", "ablation", "comparison",
                     "smoke"):
            assert name in out

    def test_bench_without_experiment_errors(self, capsys):
        assert main(["bench"]) == 2
        assert "--list" in capsys.readouterr().err


class TestBenchRun:
    def test_smoke_json_stdout_round_trip(self, capsys):
        exit_code = main(["bench", "smoke", "--json", "-"])
        out = capsys.readouterr().out
        artifact = json.loads(out)
        assert exit_code == 0
        assert artifact["experiment"] == "smoke"
        assert validate_artifact(artifact) == []

    def test_smoke_writes_default_artifact(self, tmp_path, monkeypatch,
                                           capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["bench", "smoke", "--section", "maxis_ratio"]) == 0
        out = capsys.readouterr().out
        assert "smoke-a" in out  # rendered table
        artifact = json.loads(
            (tmp_path / "BENCH_smoke.json").read_text()
        )
        assert [s["name"] for s in artifact["sections"]] == [
            "maxis_ratio"
        ]

    def test_output_flag_and_validate_round_trip(self, tmp_path, capsys):
        path = tmp_path / "artifacts" / "BENCH_smoke.json"
        assert main(["bench", "smoke", "--section", "maxis_ratio",
                     "--json", str(path)]) == 0
        capsys.readouterr()
        assert main(["bench", "--validate", str(path)]) == 0
        assert "valid artifact" in capsys.readouterr().out

    def test_validate_rejects_corrupt_artifact(self, tmp_path, capsys):
        path = tmp_path / "BENCH_bad.json"
        path.write_text(json.dumps({"schema": "nope"}))
        assert main(["bench", "--validate", str(path)]) == 1
        assert "invalid" in capsys.readouterr().err

    def test_validate_missing_file_exits_cleanly(self, tmp_path, capsys):
        assert main(["bench", "--validate",
                     str(tmp_path / "nope.json")]) == 1
        assert "cannot read artifact" in capsys.readouterr().err

    def test_validate_non_json_exits_cleanly(self, tmp_path, capsys):
        path = tmp_path / "garbage.json"
        path.write_text("not json {")
        assert main(["bench", "--validate", str(path)]) == 1
        assert "cannot read artifact" in capsys.readouterr().err

    def test_render_from_artifact_file(self, tmp_path, capsys):
        path = tmp_path / "BENCH_smoke.json"
        assert main(["bench", "smoke", "--section", "maxis_ratio",
                     "--json", str(path)]) == 0
        capsys.readouterr()
        assert main(["bench", "--render", str(path)]) == 0
        out = capsys.readouterr().out
        assert "smoke-a" in out and "PASSED" in out

    def test_json_path_and_output_conflict(self, tmp_path, capsys):
        # --json PATH is the only artifact path flag: the old --output
        # alias is an unknown argument, and nothing is written.
        with pytest.raises(SystemExit) as exit_info:
            main(["bench", "smoke", "--json", str(tmp_path / "a.json"),
                  "--output", str(tmp_path / "b.json")])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --output" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_json_path_writes_and_renders(self, tmp_path, capsys):
        path = tmp_path / "a.json"
        assert main(["bench", "smoke", "--section", "maxis_ratio",
                     "--json", str(path)]) == 0
        out = capsys.readouterr().out
        assert "smoke-a" in out  # tables still rendered
        assert json.loads(path.read_text())["experiment"] == "smoke"

    def test_no_artifact_beats_json_path(self, tmp_path, capsys):
        path = tmp_path / "a.json"
        assert main(["bench", "smoke", "--section", "maxis_ratio",
                     "--json", str(path), "--no-artifact"]) == 0
        capsys.readouterr()
        assert not path.exists()

    def test_no_artifact_flag(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["bench", "smoke", "--section", "maxis_ratio",
                     "--no-artifact"]) == 0
        capsys.readouterr()
        assert not (tmp_path / "BENCH_smoke.json").exists()

    def test_unknown_experiment_exits_cleanly(self, capsys):
        assert main(["bench", "not-an-experiment"]) == 2
        err = capsys.readouterr().err
        assert "unknown experiment" in err
        assert "table1" in err  # inventory listed for discoverability

    def test_unknown_section_exits_cleanly(self, capsys):
        assert main(["bench", "smoke", "--section", "nope"]) == 2
        assert "maxis_ratio" in capsys.readouterr().err

    def test_failed_checks_exit_nonzero(self, tmp_path, monkeypatch,
                                        capsys):
        """Regression gate: a spec whose check fails exits 1."""

        from repro.experiments import catalog

        monkeypatch.chdir(tmp_path)
        monkeypatch.setitem(catalog.SMOKE_SIM_EXPECTED, "rounds", -1)
        assert main(["bench", "smoke", "--no-artifact"]) == 1
        assert "FAIL" in capsys.readouterr().out
