"""Tests for the execution recorder."""

import pytest

from repro.congest import ExecutionRecorder, SynchronousNetwork
from repro.core import maxis_layers_phases
from repro.graphs import assign_node_weights, gnp_graph, path_graph
from repro.mis import luby_mis
from repro.utils import drain


class TestRecorder:
    def test_records_luby_run(self):
        g = gnp_graph(30, 0.2, seed=1)
        net = SynchronousNetwork(g, seed=2)
        recorder = ExecutionRecorder().attach(net)
        _, rounds = luby_mis(g, network=net)
        assert recorder.rounds == rounds
        assert sum(recorder.message_series()) == net.metrics.messages

    def test_active_series_non_increasing(self):
        """Halting-only protocols: participation shrinks monotonically."""

        g = gnp_graph(25, 0.25, seed=3)
        net = SynchronousNetwork(g, seed=4)
        recorder = ExecutionRecorder().attach(net)
        luby_mis(g, network=net)
        series = recorder.active_series()
        assert all(b <= a for a, b in zip(series, series[1:]))
        assert series[-1] == 0

    def test_algorithm_2_cascade_visible(self):
        g = assign_node_weights(gnp_graph(25, 0.2, seed=5), 64, seed=6)
        net = SynchronousNetwork(g, seed=7)
        recorder = ExecutionRecorder().attach(net)
        drain(maxis_layers_phases(g, network=net))
        summary = recorder.summary()
        assert summary["rounds"] > 0
        assert summary["messages"] > 0
        assert summary["peak_round_messages"] >= 1

    def test_busiest_round(self):
        g = path_graph(6)
        net = SynchronousNetwork(g, seed=8)
        recorder = ExecutionRecorder().attach(net)
        luby_mis(g, network=net)
        busiest = recorder.busiest_round()
        assert busiest.sent == max(recorder.message_series())

    def test_busiest_round_empty_raises(self):
        with pytest.raises(ValueError):
            ExecutionRecorder().busiest_round()

    def test_bits_accounted(self):
        g = path_graph(4)
        net = SynchronousNetwork(g, seed=9)
        recorder = ExecutionRecorder().attach(net)
        luby_mis(g, network=net)
        assert sum(r.bits_sent for r in recorder.records) == \
            net.metrics.bits
