"""Tests for NetworkMetrics bookkeeping and RunResult helpers."""

from repro.congest import NetworkMetrics, RunResult, SynchronousNetwork
from repro.congest.node import IdleProgram
from repro.graphs import path_graph


class TestNetworkMetrics:
    def test_charge_rounds_breakdown(self):
        metrics = NetworkMetrics()
        metrics.charge_rounds(3, "phase-a")
        metrics.charge_rounds(2, "phase-a")
        metrics.charge_rounds(1, "phase-b")
        assert metrics.rounds == 6
        assert metrics.round_breakdown == {"phase-a": 5, "phase-b": 1}


class TestRunResult:
    def test_output_set_filters_by_value(self):
        result = RunResult(outputs={1: "in", 2: "out", 3: "in"},
                           rounds=4, metrics=NetworkMetrics())
        assert result.output_set("in") == {1, 3}
        assert result.output_set("out") == {2}
        assert result.output_set("weird") == set()

    def test_idle_run_produces_outputs_for_all(self):
        g = path_graph(3)
        net = SynchronousNetwork(g, seed=0)
        result = net.run(lambda n: IdleProgram("x"), max_rounds=2)
        assert set(result.outputs) == set(g.nodes)
