"""Parallel runner: worker-count determinism and CLI flags."""

import json

import pytest

from repro.experiments import Runner, artifact_to_json, get_experiment
from repro.__main__ import main

SMOKE = get_experiment("smoke")


class TestWorkerDeterminism:
    def test_artifact_bytes_identical_across_worker_counts(self):
        serial = artifact_to_json(Runner(SMOKE).run())
        pooled = artifact_to_json(Runner(SMOKE, workers=2).run())
        assert serial == pooled

    def test_parallel_trial_failure_aborts_with_context(self):
        spec = get_experiment("smoke")
        runner = Runner(spec, workers=2)
        # sabotage the plan: an unknown measurement fails in the worker
        section = spec.section("maxis_ratio")
        plan = runner._section_plan(section)
        plan[0]["measurement"] = "definitely-not-registered"
        with pytest.raises(RuntimeError) as err:
            runner._execute_parallel(plan)
        assert "definitely-not-registered" in str(err.value)


class TestCli:
    def test_workers_flag_round_trips(self, tmp_path, capsys):
        out = tmp_path / "smoke_workers.json"
        code = main(["bench", "smoke", "--section", "maxis_ratio",
                     "--workers", "2", "--json", str(out)])
        assert code == 0
        artifact = json.loads(out.read_text())
        assert artifact["summary"]["passed"] is True

    @pytest.mark.parametrize("flag", [["--timing"], ["--repeat", "3"]])
    def test_no_wall_clock_flags(self, flag, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["bench", "smoke", *flag])
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_no_pool_backend_flag(self, capsys):
        # workers > 1 always means the process pool.
        with pytest.raises(SystemExit) as exit_info:
            main(["bench", "smoke", "--backend", "thread"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
