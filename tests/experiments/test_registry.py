"""Registry lookups: experiments, measurements, graph families."""

import pytest

from repro.experiments import (
    UnknownExperiment,
    build_graph,
    get_experiment,
    get_measurement,
    list_experiments,
    list_measurements,
)
from repro.errors import ReproError


class TestExperimentRegistry:
    def test_catalog_registers_all_benchmarks(self):
        """The exact catalog: every experiment is byte-deterministic,
        so a wall-clock experiment reappearing here fails the test."""

        names = {spec.name for spec in list_experiments()}
        assert names == {
            "ablation", "budgets", "churn", "comparison", "congestion",
            "faults", "figure1", "layers", "mpc_scaling", "nmis_decay",
            "proposal", "smoke", "table1",
        }

    def test_lookup_returns_spec_with_sections(self):
        spec = get_experiment("smoke")
        assert spec.name == "smoke"
        assert len(spec.sections) >= 3
        assert spec.section("sim_microbench").measurement == (
            "simulator_microbench"
        )

    def test_unknown_experiment_raises_with_inventory(self):
        with pytest.raises(UnknownExperiment, match="table1"):
            get_experiment("definitely-not-registered")

    def test_unknown_experiment_is_a_repro_error(self):
        with pytest.raises(ReproError):
            get_experiment("nope")
        with pytest.raises(KeyError):
            get_experiment("nope")

    def test_unknown_section_lists_known_names(self):
        spec = get_experiment("smoke")
        with pytest.raises(KeyError, match="maxis_ratio"):
            spec.section("nope")

    def test_describe_is_jsonable_summary(self):
        description = get_experiment("table1").describe()
        assert description["name"] == "table1"
        assert {"name", "title", "measurement", "cells", "seeds",
                "checks"} <= set(description["sections"][0])


class TestMeasurementRegistry:
    def test_known_measurements_present(self):
        names = list_measurements()
        for expected in ("maxis_layers", "maxis_coloring",
                         "matching_lines", "oneeps_local",
                         "simulator_microbench"):
            assert expected in names

    def test_unknown_measurement_raises(self):
        with pytest.raises(UnknownExperiment):
            get_measurement("nope")

    def test_measurement_contract(self):
        """Adapters return (JSON-able measures, optional metrics)."""

        import json

        graph = build_graph({
            "family": "gnp", "args": {"n": 12, "p": 0.3, "seed": 1},
            "node_weights": {"max_weight": 8, "seed": 2},
        })
        measures, metrics = get_measurement("maxis_layers")(graph, 0)
        json.dumps(measures)  # must not raise
        assert measures["rounds"] >= 1
        assert metrics is not None and metrics.messages > 0


class TestGraphFamilies:
    def test_build_gnp_with_weights(self):
        graph = build_graph({
            "family": "gnp", "args": {"n": 10, "p": 0.5, "seed": 3},
            "node_weights": {"max_weight": 16, "seed": 4},
        })
        assert graph.number_of_nodes() == 10
        assert all("weight" in d for _, d in graph.nodes(data=True))

    def test_layered_geometric_weights_are_powers_of_two(self):
        graph = build_graph({
            "family": "layered_geometric",
            "args": {"layers": 4, "width": 3, "seed": 1},
        })
        for _, data in graph.nodes(data=True):
            assert data["weight"] == 2 ** data["layer"]

    def test_figure1_instance_ships_its_matching(self):
        graph = build_graph({"family": "figure1"})
        assert len(graph.graph["matching"]) == 3
        sides = {d["side"] for _, d in graph.nodes(data=True)}
        assert sides == {"A", "B"}

    def test_unknown_family_raises(self):
        with pytest.raises(UnknownExperiment):
            build_graph({"family": "hypercube", "args": {}})
