"""Tests for the ``python -m repro`` command-line interface."""

import json

import pytest

from repro.__main__ import MATCHING_ALGORITHMS, MAXIS_ALGORITHMS, main


class TestInfo:
    def test_prints_inventory(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "Algorithm 2" in out
        assert "Theorem B.4" in out

    def test_json_registry(self, capsys):
        assert main(["info", "--json"]) == 0
        entries = json.loads(capsys.readouterr().out)
        assert isinstance(entries, list) and entries
        by_name = {entry["name"]: entry for entry in entries}
        assert {"maxis-layers", "maxis-coloring", "matching-oneeps",
                "matching-fast2eps"} <= set(by_name)
        for entry in entries:
            assert {"name", "problem", "paper", "guarantee",
                    "models"} <= set(entry)
        assert by_name["maxis-layers"]["problem"] == "maxis"
        assert by_name["matching-oneeps"]["models"] == ["LOCAL"]

    def test_json_registry_covers_cli_choices(self, capsys):
        main(["info", "--json"])
        entries = json.loads(capsys.readouterr().out)
        maxis = {e["cli"] for e in entries if e["problem"] == "maxis"}
        matching = {e["cli"] for e in entries if e["problem"] == "matching"}
        assert set(MAXIS_ALGORITHMS) <= maxis
        assert set(MATCHING_ALGORITHMS) <= matching


class TestMaxis:
    @pytest.mark.parametrize("algorithm", MAXIS_ALGORITHMS)
    def test_runs_and_reports_ratio(self, algorithm, capsys):
        code = main(["maxis", "--algorithm", algorithm, "--nodes", "18",
                     "--max-weight", "16", "--seed", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "ratio" in out
        assert "rounds" in out

    def test_negative_max_rounds_rejected(self, capsys):
        code = main(["maxis", "--nodes", "18", "--max-rounds", "-1"])
        assert code == 2
        captured = capsys.readouterr()
        assert "max_rounds must be a non-negative integer" in captured.err
        assert "truncated" not in captured.out

    def test_skip_oracle(self, capsys):
        main(["maxis", "--nodes", "18", "--skip-oracle"])
        out = capsys.readouterr().out
        assert "ratio" not in out


class TestMatching:
    @pytest.mark.parametrize("algorithm", MATCHING_ALGORITHMS)
    def test_runs_each_algorithm(self, algorithm, capsys):
        code = main(["matching", "--algorithm", algorithm, "--nodes",
                     "16", "--seed", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "rounds" in out

    def test_export_csv(self, tmp_path, capsys):
        out_file = tmp_path / "row.csv"
        main(["matching", "--algorithm", "lines", "--nodes", "14",
              "--export", str(out_file)])
        assert out_file.exists()
        assert "algorithm" in out_file.read_text()

    def test_export_json(self, tmp_path, capsys):
        out_file = tmp_path / "row.json"
        main(["maxis", "--nodes", "12", "--export", str(out_file)])
        assert out_file.exists()

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(SystemExit):
            main(["matching", "--algorithm", "bogus"])


class TestResumeVerb:
    def uncut_weight(self, capsys):
        main(["maxis", "--nodes", "60", "--seed", "5", "--skip-oracle"])
        row = capsys.readouterr().out.splitlines()[-1].split()
        return row

    def test_truncate_save_resume_round_trip(self, tmp_path, capsys):
        full_row = self.uncut_weight(capsys)
        state = tmp_path / "cp.json"
        code = main(["maxis", "--nodes", "60", "--seed", "5",
                     "--skip-oracle", "--max-rounds", "4",
                     "--save-state", str(state)])
        assert code == 0
        out = capsys.readouterr().out
        assert "truncated" in out
        assert state.exists()
        envelope = json.loads(state.read_text())
        assert envelope["format"] == "repro-resume-file/1"
        assert envelope["workload"]["nodes"] == 60
        code = main(["resume", str(state), "--skip-oracle"])
        assert code == 0
        resumed_row = capsys.readouterr().out.splitlines()[-1].split()
        assert resumed_row == full_row

    def test_multi_hop_with_backend_switch(self, tmp_path, capsys):
        full_row = self.uncut_weight(capsys)
        state = tmp_path / "cp.json"
        main(["maxis", "--nodes", "60", "--seed", "5", "--skip-oracle",
              "--max-rounds", "3", "--save-state", str(state),
              "--backend", "array"])
        capsys.readouterr()
        code = main(["resume", str(state), "--skip-oracle",
                     "--max-rounds", "6", "--save-state", str(state)])
        assert code == 0
        assert "truncated" in capsys.readouterr().out
        code = main(["resume", str(state), "--skip-oracle",
                     "--backend", "array"])
        assert code == 0
        resumed_row = capsys.readouterr().out.splitlines()[-1].split()
        assert resumed_row == full_row

    def test_completed_run_saves_nothing(self, tmp_path, capsys):
        state = tmp_path / "cp.json"
        main(["maxis", "--nodes", "14", "--skip-oracle",
              "--save-state", str(state)])
        assert "no state written" in capsys.readouterr().out
        assert not state.exists()

    def test_missing_file_fails_cleanly(self, tmp_path, capsys):
        code = main(["resume", str(tmp_path / "nope.json")])
        assert code == 1
        assert "cannot read state file" in capsys.readouterr().err

    def test_negative_max_rounds_fails_cleanly(self, tmp_path, capsys):
        state = tmp_path / "cp.json"
        main(["maxis", "--nodes", "60", "--seed", "5", "--skip-oracle",
              "--max-rounds", "3", "--save-state", str(state)])
        capsys.readouterr()
        code = main(["resume", str(state), "--max-rounds", "-1"])
        assert code == 1
        assert "max_rounds must be a non-negative integer" in \
            capsys.readouterr().err

    def test_malformed_file_fails_cleanly(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"format": "bogus"}))
        code = main(["resume", str(bad)])
        assert code == 1
        assert "not a 'repro-resume-file/1' state file" in \
            capsys.readouterr().err
