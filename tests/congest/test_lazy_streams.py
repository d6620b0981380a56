"""Both engines derive a node's RNG stream only when it is used.

``NodeContext.rng`` is ``stable_rng(seed, node, proto)`` derived on first
access, so a deterministic program derives no stream, a randomized one
derives exactly the streams it draws from, and a mid-run capture writes
the bytes an eager derivation would have written.
"""

import json
from dataclasses import replace

import pytest

import repro.congest.node as node_module
from repro.api import Instance, resume, solve
from repro.congest.network import _ObjectEngine
from repro.graphs import assign_edge_weights, assign_node_weights, gnp_graph


@pytest.fixture
def derived(monkeypatch):
    """Every per-node stream derived while the fixture is active, by the
    object engine's contexts or by an array kernel."""

    calls = []
    original = node_module.stable_rng

    def counting(*parts):
        calls.append(parts)
        return original(*parts)

    monkeypatch.setattr(node_module, "stable_rng", counting)
    array_network = pytest.importorskip("repro.congest.array_network")
    monkeypatch.setattr(array_network, "stable_rng", counting)
    return calls


@pytest.fixture(scope="module")
def graph():
    g = gnp_graph(60, 0.1, seed=3)
    assign_node_weights(g, 32, seed=4)
    assign_edge_weights(g, 32, seed=5)
    return g


def _eager(monkeypatch):
    """Make ``_ObjectEngine.bind`` derive every stream up front, the
    way it did before streams were lazy."""

    bind = _ObjectEngine.bind

    def eager_bind(self, proto):
        bind(self, proto)
        for ctx, _program in self._pairs:
            ctx.rng  # the property derives the stream

    monkeypatch.setattr(_ObjectEngine, "bind", eager_bind)


class TestStreamsDerived:
    @pytest.mark.parametrize("name, model", [("maxis-coloring", None),
                                             ("maxis-greedy", "mpc")])
    def test_deterministic_run_derives_no_stream(self, graph, derived,
                                                 name, model):
        report = solve(Instance(graph, seed=7, model=model,
                                backend="object"), name)
        assert report.status == "complete"
        assert derived == []

    def test_luby_derives_one_stream_per_node(self, graph, derived):
        solve(Instance(graph, seed=7, backend="object"), "mis-luby")
        nodes = [parts[1] for parts in derived]
        assert sorted(nodes) == sorted(graph.nodes)

    @pytest.mark.parametrize("backend", ["object", "array"])
    def test_resume_sets_captured_streams_without_deriving(self, graph,
                                                            derived,
                                                            backend):
        base = Instance(graph, seed=7, backend=backend)
        cut = solve(replace(base, max_rounds=4), "maxis-layers")
        assert cut.status == "truncated"
        assert cut.resume_state["state"]["sim"]["live"]
        derived.clear()
        resumed = resume(cut.resume_state, instance=base)
        assert resumed.status == "complete"
        assert derived == []


def _live_streams(payload):
    """Each live node's captured RNG state, keyed by the node's JSON."""

    live = payload["state"]["sim"]["live"]["__dict__"]
    return {json.dumps(node): entry["rng"] for node, entry in live}


class TestCaptureBytes:
    @pytest.mark.parametrize("name", ["maxis-layers", "matching-lines"])
    @pytest.mark.parametrize("backend", ["object", "array"])
    def test_capture_equals_eager_derivation(self, graph, monkeypatch,
                                             derived, name, backend):
        pytest.importorskip("numpy")
        base = Instance(graph, seed=7, backend=backend)
        cut = replace(base, max_rounds=solve(base, name).rounds // 2)

        export_live = _ObjectEngine.export_live
        at_capture = []

        def counted_export(self):
            before = len(derived)
            live = export_live(self)
            at_capture.append(len(derived) - before)
            return live

        monkeypatch.setattr(_ObjectEngine, "export_live", counted_export)
        lazy = solve(cut, name).resume_state
        monkeypatch.setattr(_ObjectEngine, "export_live", export_live)
        _eager(monkeypatch)
        eager = solve(replace(cut, backend="object"), name).resume_state

        if backend == "object":
            # The capture itself derived never-drawn streams, so the
            # comparison covers them.
            assert sum(at_capture) > 0
            assert lazy == eager
        else:
            # The kernels write messages in CSR order, so only the
            # per-node streams compare byte for byte across backends.
            assert _live_streams(lazy) == _live_streams(eager)
