"""Tests for the :mod:`repro.api` algorithm registry."""

import dataclasses
import hashlib
import inspect
import json
from collections import Counter

import pytest

from repro.api import (
    AlgorithmSpec,
    Instance,
    UnknownAlgorithm,
    UnsupportedModel,
    cli_names,
    get_algorithm,
    list_algorithms,
    register_algorithm,
    registry_as_json,
)
from repro.__main__ import main
from repro.errors import ReproError
from repro.graphs import gnp_graph

#: SHA-256 of ``python -m repro info --json``, recorded while every
#: registry entry still carried a second, plain runner beside its
#: generator: collapsing the spec to one runner must not change what
#: the registry advertises.
INFO_JSON_SHA256 = (
    "995c97381a8167c2093beba7841855a91c2054bc15307abd7d320b65da08a2ec"
)


class TestLookup:
    def test_get_by_registry_name(self):
        spec = get_algorithm("maxis-layers")
        assert spec.problem == "maxis"
        assert spec.cli == "layers"

    def test_get_by_cli_name_within_problem(self):
        assert get_algorithm("layers", problem="maxis").name == "maxis-layers"
        assert (get_algorithm("oneeps", problem="matching").name
                == "matching-oneeps")

    def test_unknown_name_raises(self):
        with pytest.raises(UnknownAlgorithm) as excinfo:
            get_algorithm("bogus")
        assert "registered:" in str(excinfo.value)

    def test_unknown_algorithm_is_repro_error_and_key_error(self):
        with pytest.raises(ReproError):
            get_algorithm("bogus")
        with pytest.raises(KeyError):
            get_algorithm("bogus")

    def test_problem_scoping_rejects_cross_problem_name(self):
        with pytest.raises(UnknownAlgorithm):
            get_algorithm("layers", problem="matching")


class TestListing:
    def test_sorted_and_unique(self):
        names = [spec.name for spec in list_algorithms()]
        assert names == sorted(names)
        assert len(names) == len(set(names))

    def test_problem_filter(self):
        maxis = list_algorithms("maxis")
        assert maxis and all(s.problem == "maxis" for s in maxis)

    def test_cli_names_exclude_non_cli_specs(self):
        matching = cli_names("matching")
        assert "lines" in matching and "oneeps" in matching
        # bipartite-only algorithms stay off the G(n,p) CLI path
        assert all("bipartite" not in name for name in matching)

    def test_paper_algorithms_all_registered(self):
        names = {spec.name for spec in list_algorithms()}
        assert {
            "maxis-layers", "maxis-coloring", "matching-lines",
            "matching-groups", "matching-fast2eps",
            "matching-fast2eps-weighted", "matching-oneeps",
            "matching-oneeps-congest", "matching-proposal",
        } <= names


class TestRegistryJson:
    def test_round_trips_through_json(self):
        payload = json.loads(json.dumps(registry_as_json()))
        assert [entry["name"] for entry in payload] == [
            spec.name for spec in list_algorithms()
        ]

    def test_entries_carry_capability_flags(self):
        by_name = {entry["name"]: entry for entry in registry_as_json()}
        assert by_name["maxis-coloring"]["deterministic"] is True
        assert by_name["matching-fast2eps"]["uses_eps"] is True
        assert by_name["matching-fast2eps-weighted"]["weighted"] is True
        assert by_name["matching-proposal-bipartite"][
            "requires_bipartite"] is True


class TestRegistration:
    def test_duplicate_name_rejected(self):
        spec = get_algorithm("maxis-layers")
        with pytest.raises(ValueError):
            register_algorithm(spec)

    def test_model_resolution(self, weighted_graph):
        spec = get_algorithm("matching-oneeps")
        assert spec.resolve_model(Instance(weighted_graph)) == "LOCAL"
        with pytest.raises(UnsupportedModel):
            spec.resolve_model(Instance(weighted_graph, model="CONGEST"))

    def test_spec_is_frozen(self):
        spec = get_algorithm("maxis-layers")
        assert isinstance(spec, AlgorithmSpec)
        with pytest.raises(AttributeError):
            spec.name = "other"


class TestSingleRunnerContract:
    def test_spec_has_one_runner_field(self):
        names = {field.name for field in dataclasses.fields(AlgorithmSpec)}
        assert "run_iter" in names
        assert "run" not in names

    def test_every_runner_is_a_generator_function(self):
        for spec in list_algorithms():
            assert inspect.isgeneratorfunction(spec.run_iter), spec.name

    def test_nine_phased_and_nine_coarse_entries(self):
        counts = Counter(entry["anytime"] for entry in registry_as_json())
        assert counts == {"phases": 9, "coarse": 9}

    def test_info_json_is_byte_identical(self, capsys):
        assert main(["info", "--json"]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == INFO_JSON_SHA256

    def test_lifted_runner_emits_begin_end_on_stripped_budget(self):
        # A coarse runner cannot stop mid-run: the lift runs the plain
        # function without the budget and hands back the real instance.
        spec = get_algorithm("matching-greedy")
        instance = Instance(gnp_graph(12, 0.3, seed=1), max_rounds=0)
        stream = spec.run_iter(instance)
        checkpoints = []
        while True:
            try:
                checkpoints.append(next(stream))
            except StopIteration as stop:
                report = stop.value
                break
        assert [c.phase for c in checkpoints] == ["begin", "end"]
        assert checkpoints[-1].final
        assert checkpoints[-1].solution == report.solution
        assert report.instance is instance
