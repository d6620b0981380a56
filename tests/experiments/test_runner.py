"""Runner execution, artifact schema and the determinism contract."""

import json

from repro.experiments import (
    Check,
    ExperimentSpec,
    Runner,
    Section,
    artifact_to_json,
    get_experiment,
    load_artifact,
    run_experiment,
    validate_artifact,
    write_artifact,
)

SMOKE = get_experiment("smoke")


def _tiny_spec(checks=(), seeds=(0, 1)):
    return ExperimentSpec(
        name="tiny",
        title="tiny test spec",
        sections=(
            Section(
                name="main",
                title="tiny section",
                measurement="maxis_layers",
                grid=(
                    {"graph": {"family": "gnp",
                               "args": {"n": 12, "p": 0.3, "seed": 1},
                               "node_weights": {"max_weight": 8,
                                                "seed": 2}}},
                ),
                seeds=seeds,
                checks=tuple(checks),
            ),
        ),
    )


class TestRunner:
    def test_trials_cover_grid_times_seeds(self):
        artifact = Runner(_tiny_spec()).run()
        assert artifact["summary"]["trials"] == 2
        section = artifact["sections"][0]
        assert [t["seed"] for t in section["trials"]] == [0, 1]

    def test_trial_records_measures_and_metrics(self):
        artifact = Runner(_tiny_spec()).run()
        trial = artifact["sections"][0]["trials"][0]
        assert trial["measures"]["rounds"] >= 1
        assert trial["metrics"]["messages"] > 0
        assert trial["graph"]["family"] == "gnp"

    def test_failed_check_is_recorded_not_raised(self):
        def impossible(rows):
            assert False, "always fails"

        spec = _tiny_spec(checks=[Check("impossible", impossible)])
        artifact = Runner(spec).run()
        check = artifact["sections"][0]["checks"][0]
        assert check["passed"] is False
        assert "always fails" in check["detail"]
        assert artifact["summary"]["passed"] is False
        assert artifact["summary"]["checks_failed"] == 1

    def test_crashing_check_is_recorded_not_raised(self):
        """The record-not-abort contract covers non-assertion crashes
        (a missing row key, an exhausted next()) too."""

        def crashes(rows):
            raise KeyError("missing_column")

        spec = _tiny_spec(checks=[Check("crashes", crashes)])
        artifact = Runner(spec).run()
        check = artifact["sections"][0]["checks"][0]
        assert check["passed"] is False
        assert "KeyError" in check["detail"]

    def test_non_finite_measures_serialize_as_failed_not_crash(self):
        """An infinite ratio (empty solution vs positive optimum) must
        yield a serializable artifact with a failed check, not a
        ValueError from json.dumps(allow_nan=False)."""

        from repro.experiments import register_measurement

        try:
            @register_measurement("_test_inf")
            def _inf(graph, seed):
                return {"ratio": float("inf"), "nan": float("nan")}, None
        except ValueError:
            pass  # already registered by a previous parametrization

        spec = ExperimentSpec(
            name="inftest", title="inf test",
            sections=(
                Section(
                    name="main", title="inf", measurement="_test_inf",
                    grid=({},),
                    checks=(Check("bounded",
                                  lambda rows: [r["ratio"] <= 2
                                                for r in rows]),),
                ),
            ),
        )
        artifact = Runner(spec).run()
        text = artifact_to_json(artifact)  # must not raise
        measures = artifact["sections"][0]["trials"][0]["measures"]
        assert measures["ratio"] == "inf"
        assert measures["nan"] == "nan"
        check = artifact["sections"][0]["checks"][0]
        assert check["passed"] is False  # str vs int comparison crashed
        assert "TypeError" in check["detail"]
        assert "inf" in text

    def test_section_subset(self):
        artifact = Runner(SMOKE).run(sections=["maxis_ratio"])
        assert [s["name"] for s in artifact["sections"]] == ["maxis_ratio"]

    def test_run_experiment_wrapper(self):
        artifact = run_experiment(_tiny_spec())
        assert artifact["experiment"] == "tiny"


class TestDeterminism:
    def test_same_spec_same_seed_byte_identical_json(self):
        """The headline contract: repeated runs serialize identically."""

        first = artifact_to_json(Runner(SMOKE).run())
        second = artifact_to_json(Runner(SMOKE).run())
        assert first == second


class TestArtifact:
    def test_smoke_artifact_validates(self):
        artifact = Runner(SMOKE).run()
        assert validate_artifact(artifact) == []

    def test_write_and_load_round_trip(self, tmp_path):
        artifact = Runner(_tiny_spec()).run()
        path = write_artifact(artifact, tmp_path / "sub" / "a.json")
        assert path.name == "a.json"
        assert load_artifact(path) == artifact

    def test_default_artifact_filename(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        artifact = Runner(_tiny_spec()).run()
        path = write_artifact(artifact)
        assert path.name == "BENCH_tiny.json"

    def test_validator_rejects_wrong_schema(self):
        artifact = Runner(_tiny_spec()).run()
        artifact["schema"] = "repro-bench/999"
        assert any("schema" in p for p in validate_artifact(artifact))

    def test_validator_rejects_inconsistent_summary(self):
        artifact = Runner(_tiny_spec()).run()
        artifact["summary"]["trials"] += 1
        assert any("summary.trials" in p
                   for p in validate_artifact(artifact))

    def test_validator_rejects_truncated_sections(self):
        artifact = Runner(_tiny_spec()).run()
        del artifact["sections"][0]["rows"]
        assert any("rows" in p for p in validate_artifact(artifact))

    def test_validator_rejects_non_object(self):
        assert validate_artifact([1, 2]) != []

    def test_json_has_no_wallclock_by_default(self):
        text = artifact_to_json(Runner(SMOKE).run())
        assert "seconds" not in text
        assert json.loads(text)["schema"] == "repro-bench/1"
