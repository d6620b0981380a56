"""The array-native simulator backend: **bit-compatible or fall back**.

The contract this suite pins (the PR-6 tentpole):

* for every ported program (Algorithm 2 layers, Algorithm 3 coloring,
  the Lemma B.13 proposal matcher) the array backend reproduces the
  object backend bit-for-bit — same outputs, same round count, and the
  *exact* same :class:`~repro.congest.NetworkMetrics` (messages, bits,
  max bits/edge/round, violations, round breakdown);
* edge cases hold: no edges, isolated vertices, a single edge,
  ``max_rounds=0``, and mid-run truncation + resume (including resuming
  an object-backend checkpoint on the array backend and vice versa —
  the ``resume_state`` payload format is backend-agnostic);
* everything the kernels do not cover falls back to the object engine
  transparently (unported programs, strict mode, oversized weights,
  …) instead of diverging or crashing;
* backend selection plumbing works: ``make_network``, the
  ``REPRO_BACKEND`` environment variable, ``Instance(backend=...)``
  validation, and the registry's ``backends`` capability column;
* the parity above is not a silent fallback: every core call site that
  passes a parameter table builds its registered kernel from it and
  runs its program factory once, for the probe, and each Lemma B.14
  repetition runs on a mask of the parent CSR that equals a fresh
  compile of the networkx sub-graph it replaces.
"""

import collections
import inspect
import random

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.congest import (
    ARRAY_BACKEND,
    BACKEND_ENV,
    OBJECT_BACKEND,
    ArrayNetwork,
    IdleProgram,
    SynchronousNetwork,
    make_network,
    resolve_backend,
)
from repro.congest import array_kernels, array_network
from repro.congest.array_network import GraphCSR, graph_csr
from repro.core import (
    maxis_coloring,
    maxis_layers,
    proposal_matching,
)
from repro.core.maxis_coloring import MaxISColoringProgram
from repro.core.maxis_layers import LayerTrace, MaxISLayersProgram
from repro.core.proposal_matching import ProposalProgram
from repro.errors import InvalidInstance, SimulationError
from repro.graphs import FAMILIES, assign_node_weights, gnp_graph
from repro.mis.coloring import delta_plus_one_coloring
from repro.utils import drain


def layers_factory(graph, trace=None):
    """Algorithm 2's ``(factory, table)`` pair: the object engine builds
    a program per node, the array engine a kernel from the table."""

    def factory(node):
        return MaxISLayersProgram(graph.nodes[node].get("weight", 1), trace)

    weights = [w for _, w in graph.nodes(data="weight", default=1)]
    return factory, {"weight": weights, "trace": trace}


def coloring_factory(graph):
    colors = delta_plus_one_coloring(graph).colors

    def factory(node):
        return MaxISColoringProgram(
            weight=graph.nodes[node].get("weight", 1),
            color=colors[node],
            neighbor_colors={u: colors[u] for u in graph.neighbors(node)},
        )

    weights = [w for _, w in graph.nodes(data="weight", default=1)]
    return factory, {"weight": weights,
                     "color": [colors[v] for v in graph.nodes]}


def proposal_factory(graph, phases=6):
    sides = {v: ("L" if v % 2 == 0 else "R") for v in graph.nodes}

    def factory(node):
        return ProposalProgram(sides[node], phases)

    return factory, {"side": list(sides.values()), "phases": phases}


def stepwise(network, protocol, **kwargs):
    """``network.run_stepwise`` for a ``(factory, table)`` pair."""

    factory, table = protocol
    return network.run_stepwise(factory, table=table, **kwargs)


def bipartite_graph(nl, nr, p, seed):
    """Bipartite test graph with even/odd node ids encoding the sides."""

    raw = nx.bipartite.random_graph(nl, nr, p, seed=seed)
    relabel = {}
    left = sorted(v for v, d in raw.nodes(data=True) if d["bipartite"] == 0)
    right = sorted(v for v in raw.nodes if v not in set(left))
    for i, v in enumerate(left):
        relabel[v] = 2 * i
    for i, v in enumerate(right):
        relabel[v] = 2 * i + 1
    return nx.relabel_nodes(raw, relabel)


def weighted_gnp(n, p, seed, max_weight=256):
    g = gnp_graph(n, p, seed=seed)
    assign_node_weights(g, max_weight, scheme="log-uniform", seed=seed + 1)
    return g


def metrics_tuple(network):
    m = network.metrics
    return (m.rounds, m.messages, m.bits, m.max_bits_per_edge_round,
            m.violations, dict(m.round_breakdown))


def run_both(graph, factory_of, seed=0, max_rounds=10_000, **run_kwargs):
    """Run one program on both backends; return the two (result, metrics)."""

    out = []
    for backend in (OBJECT_BACKEND, ARRAY_BACKEND):
        network = make_network(graph, seed=seed, backend=backend)
        result = drain(stepwise(
            network, factory_of(graph), max_rounds=max_rounds, **run_kwargs
        ))
        out.append((result, metrics_tuple(network)))
    return out


def assert_bit_identical(graph, factory_of, seed=0, **run_kwargs):
    (obj, obj_m), (arr, arr_m) = run_both(
        graph, factory_of, seed=seed, **run_kwargs
    )
    assert arr.outputs == obj.outputs
    assert arr.rounds == obj.rounds
    assert arr.completed == obj.completed
    assert arr_m == obj_m
    return obj, arr


# ----------------------------------------------------------------------
# bit-compatibility on real workloads
# ----------------------------------------------------------------------
class TestKernelParity:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_maxis_layers(self, seed):
        graph = weighted_gnp(90, 0.06, seed=seed)
        assert_bit_identical(graph, layers_factory, seed=seed,
                             label="maxis-layers")

    @pytest.mark.parametrize("seed", [0, 1])
    def test_maxis_coloring(self, seed):
        graph = weighted_gnp(80, 0.07, seed=seed)
        assert_bit_identical(graph, coloring_factory, label="maxis-coloring")

    @pytest.mark.parametrize("seed", [0, 5])
    def test_proposal(self, seed):
        graph = bipartite_graph(25, 30, 0.15, seed=seed)
        assert_bit_identical(graph, proposal_factory, seed=seed,
                             label="proposal-matching")

    def test_layer_trace_is_shared_and_identical(self):
        graph = weighted_gnp(60, 0.08, seed=3)
        traces = {}
        for backend in (OBJECT_BACKEND, ARRAY_BACKEND):
            trace = LayerTrace()
            network = make_network(graph, seed=0, backend=backend)
            drain(stepwise(
                network, layers_factory(graph, trace), max_rounds=10_000
            ))
            traces[backend] = trace
        assert (traces[ARRAY_BACKEND].occupancy
                == traces[OBJECT_BACKEND].occupancy)

    def test_core_entry_points_accept_backend(self):
        graph = weighted_gnp(70, 0.07, seed=4)
        obj = drain(maxis_layers.maxis_layers_phases(graph, seed=2))
        net = make_network(graph, seed=2, backend=ARRAY_BACKEND)
        arr = drain(maxis_layers.maxis_layers_phases(graph, seed=2,
                                                     network=net))
        assert arr.independent_set == obj.independent_set
        assert arr.rounds == obj.rounds
        assert arr.weight == obj.weight

    def test_general_proposal_backend_kwarg(self):
        graph = gnp_graph(50, 0.09, seed=11)
        obj = drain(proposal_matching.general_proposal_phases(graph,
                                                              seed=3))
        arr = drain(proposal_matching.general_proposal_phases(
            graph, seed=3, backend=ARRAY_BACKEND
        ))
        assert arr[0] == obj[0]
        assert arr[1] == obj[1]
        assert arr[2].breakdown == obj[2].breakdown


# ----------------------------------------------------------------------
# edge cases (the satellite checklist)
# ----------------------------------------------------------------------
class TestEdgeCases:
    def test_empty_graph_falls_back_cleanly(self):
        graph = nx.Graph()
        network = make_network(graph, backend=ARRAY_BACKEND)
        result = drain(stepwise(network, layers_factory(graph)))
        assert result.outputs == {}
        assert result.completed

    def test_edgeless_graph(self):
        graph = nx.Graph()
        graph.add_nodes_from(range(7))
        for factory_of in (layers_factory, coloring_factory,
                           proposal_factory):
            assert_bit_identical(graph, factory_of)

    def test_isolated_vertices_mixed_with_a_component(self):
        graph = weighted_gnp(40, 0.1, seed=6)
        graph.add_nodes_from(range(1000, 1010))  # isolated, weight 1
        assert_bit_identical(graph, layers_factory, seed=6)
        assert_bit_identical(graph, coloring_factory)

    def test_single_edge(self):
        graph = nx.Graph([(0, 1)])
        graph.nodes[0]["weight"] = 5
        graph.nodes[1]["weight"] = 3
        obj, _arr = assert_bit_identical(graph, layers_factory)
        assert sorted(obj.outputs.values()) == ["InIS", "NotInIS"]
        assert_bit_identical(graph, coloring_factory)
        assert_bit_identical(graph, proposal_factory)

    def test_max_rounds_zero_truncates_before_any_round(self):
        graph = weighted_gnp(30, 0.1, seed=7)
        for backend in (OBJECT_BACKEND, ARRAY_BACKEND):
            network = make_network(graph, backend=backend)
            result = drain(stepwise(
                network, layers_factory(graph), max_rounds=0,
                stop_on_limit=True, capture_state=True, checkpoint_every=1,
            ))
            assert not result.completed
            assert result.rounds == 0
            assert network.metrics.messages == 0

    def test_self_loop_graph_matches_object_backend(self):
        graph = nx.Graph([(0, 1), (1, 1)])
        assert_bit_identical(graph, layers_factory)


# ----------------------------------------------------------------------
# truncation + resume across backends
# ----------------------------------------------------------------------
def drain_with_state(stepper):
    """Drain a stepwise run; return ``(result, final snapshot state)``."""

    state = None
    while True:
        try:
            snapshot = next(stepper)
        except StopIteration as stop:
            return stop.value, state
        if snapshot.state is not None:
            state = snapshot.state


def truncate_then_resume(graph, factory_of, cut, first, second,
                         label="maxis-layers", seed=0):
    """Truncate at ``cut`` rounds on ``first``, resume on ``second``."""

    reference = make_network(graph, seed=seed, backend=OBJECT_BACKEND)
    full = drain(stepwise(
        reference, factory_of(graph), max_rounds=10_000, label=label
    ))
    if cut >= full.rounds:
        pytest.skip(f"run finishes in {full.rounds} rounds; cut={cut} "
                    f"is not interior")
    head_net = make_network(graph, seed=seed, backend=first)
    head, state = drain_with_state(stepwise(
        head_net, factory_of(graph), max_rounds=cut, label=label,
        stop_on_limit=True, capture_state=True, checkpoint_every=1,
    ))
    assert not head.completed
    assert state is not None
    tail_net = make_network(graph, seed=seed, backend=second)
    tail = drain(stepwise(
        tail_net, factory_of(graph), max_rounds=10_000, label=label,
        resume_state=state,
    ))
    assert tail.outputs == full.outputs
    assert tail.rounds == full.rounds
    assert metrics_tuple(tail_net) == metrics_tuple(reference)


class TestTruncateAndResume:
    BACKEND_PAIRS = [
        (ARRAY_BACKEND, ARRAY_BACKEND),
        (OBJECT_BACKEND, ARRAY_BACKEND),
        (ARRAY_BACKEND, OBJECT_BACKEND),
    ]

    @pytest.mark.parametrize("first,second", BACKEND_PAIRS)
    @pytest.mark.parametrize("cut", [1, 3, 7])
    def test_layers(self, first, second, cut):
        graph = weighted_gnp(70, 0.07, seed=8)
        truncate_then_resume(graph, layers_factory, cut, first, second)

    @pytest.mark.parametrize("first,second", BACKEND_PAIRS)
    @pytest.mark.parametrize("cut", [1, 2, 3])
    def test_coloring(self, first, second, cut):
        graph = weighted_gnp(60, 0.08, seed=9)
        truncate_then_resume(graph, coloring_factory, cut, first, second,
                             label="maxis-coloring")

    @pytest.mark.parametrize("first,second", BACKEND_PAIRS)
    @pytest.mark.parametrize("cut", [2, 5])
    def test_proposal(self, first, second, cut):
        graph = bipartite_graph(20, 24, 0.18, seed=10)
        truncate_then_resume(graph, proposal_factory, cut, first, second,
                             label="proposal-matching", seed=3)

    def test_resume_missing_node_raises_like_object_backend(self):
        # A payload that lacks a live node's state is a hard error on
        # both backends, not a silent fallback.
        graph = weighted_gnp(30, 0.1, seed=12)
        net = make_network(graph, backend=ARRAY_BACKEND)
        _head, state = drain_with_state(stepwise(
            net, layers_factory(graph), max_rounds=2, stop_on_limit=True,
            capture_state=True, checkpoint_every=1,
        ))
        missing = next(iter(state["live"]))
        del state["live"][missing]
        for backend in (OBJECT_BACKEND, ARRAY_BACKEND):
            fresh = make_network(graph, backend=backend)
            with pytest.raises(SimulationError,
                               match="knows nothing about"):
                drain(stepwise(fresh, layers_factory(graph),
                                         resume_state=state))


    def test_sleeping_entry_is_refused_on_both_backends(self, spy):
        # No engine parks nodes: a payload marking a live node asleep
        # is refused by the object engine, and the array engine falls
        # back to it rather than stepping the node anyway.
        graph = weighted_gnp(30, 0.1, seed=12)
        net = make_network(graph, backend=OBJECT_BACKEND)
        _head, state = drain_with_state(stepwise(
            net, layers_factory(graph), max_rounds=2, stop_on_limit=True,
            capture_state=True, checkpoint_every=1,
        ))
        state["live"][next(iter(state["live"]))]["sleeping"] = True
        for backend in (OBJECT_BACKEND, ARRAY_BACKEND):
            fresh = make_network(graph, backend=backend)
            with pytest.raises(SimulationError, match="asleep"):
                drain(stepwise(fresh, layers_factory(graph),
                               resume_state=state))
        assert spy["MaxISLayersKernel"] == 1
        assert spy["fallbacks"] == 1


# ----------------------------------------------------------------------
# one round loop, two engines: differential cut-and-resume
# ----------------------------------------------------------------------
PROTOCOLS = {
    "layers": (layers_factory, "maxis-layers"),
    "coloring": (coloring_factory, "maxis-coloring"),
    "proposal": (proposal_factory, "proposal-matching"),
}


def sorted_in_flight(state):
    return dict(state, in_flight=sorted(state["in_flight"], key=repr))


class TestDriveDifferential:
    """Both engines run through one ``_drive``: a run captured on
    either engine at any cut and resumed on the other is the uncut
    object run, and the two engines capture the same state."""

    @settings(max_examples=40, deadline=None)
    @given(family=st.sampled_from(sorted(FAMILIES)),
           n=st.integers(5, 24), graph_seed=st.integers(0, 50),
           protocol=st.sampled_from(sorted(PROTOCOLS)),
           cut=st.integers(0, 14), seed=st.integers(0, 3))
    def test_cut_on_one_engine_resume_on_the_other(
            self, family, n, graph_seed, protocol, cut, seed):
        self.cut_and_resume(family, n, graph_seed, protocol, cut, seed)

    @settings(max_examples=30, deadline=None)
    @given(family=st.sampled_from(sorted(FAMILIES)),
           n=st.integers(5, 24), graph_seed=st.integers(0, 50),
           protocol=st.sampled_from(["layers", "proposal"]),
           cut=st.integers(0, 14), seed=st.integers(0, 3))
    def test_banked_streams_cut_and_resume(
            self, family, n, graph_seed, protocol, cut, seed):
        # Every stream the kernels draw from goes through the bank, so
        # a capture re-derives banked streams mid-run.
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(array_network, "BANK_MIN_STREAMS", 1)
            self.cut_and_resume(family, n, graph_seed, protocol, cut, seed)

    @staticmethod
    def cut_and_resume(family, n, graph_seed, protocol, cut, seed):
        graph = FAMILIES[family](n, graph_seed)
        assign_node_weights(graph, 64, seed=graph_seed)
        factory_of, label = PROTOCOLS[protocol]
        reference = make_network(graph, seed=seed, backend=OBJECT_BACKEND)
        full = drain(stepwise(reference, factory_of(graph), label=label))
        states = {}
        for backend in (OBJECT_BACKEND, ARRAY_BACKEND):
            head_net = make_network(graph, seed=seed, backend=backend)
            _head, states[backend] = drain_with_state(stepwise(
                head_net, factory_of(graph), max_rounds=cut, label=label,
                stop_on_limit=True, capture_state=True, checkpoint_every=1,
            ))
        assert sorted_in_flight(states[OBJECT_BACKEND]) == \
            sorted_in_flight(states[ARRAY_BACKEND])
        for first, second in ((OBJECT_BACKEND, ARRAY_BACKEND),
                              (ARRAY_BACKEND, OBJECT_BACKEND)):
            tail_net = make_network(graph, seed=seed, backend=second)
            tail = drain(stepwise(tail_net, factory_of(graph), label=label,
                                  resume_state=states[first]))
            assert tail.outputs == full.outputs
            assert tail.rounds == full.rounds
            assert metrics_tuple(tail_net) == metrics_tuple(reference)


#: Edits that make a resumed in-flight payload one the kernels' codec
#: cannot model, each with the test a message must pass to be edited.
PAYLOAD_EDITS = {
    "foreign tag": (lambda payload: True,
                    lambda payload: ("foreign", *payload[1:])),
    "missing word": (lambda payload: len(payload) > 1,
                     lambda payload: tuple(payload[:-1])),
    "float word": (lambda payload: len(payload) > 1,
                   lambda payload: (*payload[:-1], payload[-1] + 0.5)),
}

KERNEL_OF = {
    "layers": "MaxISLayersKernel",
    "coloring": "MaxISColoringKernel",
    "proposal": "ProposalKernel",
}


class TestCodecRefusals:
    """A resumed in-flight message the kernel's ``MESSAGES`` cannot
    model — a foreign tag, a missing word, a word that is no int —
    makes the array run fall back, and it then ends exactly as the
    object run of the same payload does."""

    @pytest.mark.parametrize("protocol,edit", [
        ("layers", "foreign tag"),
        ("layers", "missing word"),
        ("layers", "float word"),
        ("coloring", "foreign tag"),
        ("coloring", "missing word"),
        ("coloring", "float word"),
        ("proposal", "foreign tag"),
    ])
    def test_refused_payload_falls_back_to_the_object_run(
            self, spy, protocol, edit):
        factory_of, label = PROTOCOLS[protocol]
        if protocol == "proposal":
            graph, seed = bipartite_graph(20, 24, 0.18, seed=10), 3
        else:
            graph, seed = weighted_gnp(40, 0.1, seed=12), 0
        editable, rewrite = PAYLOAD_EDITS[edit]
        for cut in range(1, 10):
            head_net = make_network(graph, seed=seed, backend=OBJECT_BACKEND)
            _head, state = drain_with_state(stepwise(
                head_net, factory_of(graph), max_rounds=cut, label=label,
                stop_on_limit=True, capture_state=True, checkpoint_every=1,
            ))
            targets = [message for message in state["in_flight"]
                       if editable(message[2])]
            if targets:
                break
        else:
            pytest.fail(f"no in-flight message to edit for {edit!r}")
        targets[0][2] = rewrite(targets[0][2])

        outcomes = []
        for backend in (OBJECT_BACKEND, ARRAY_BACKEND):
            net = make_network(graph, seed=seed, backend=backend)
            try:
                result = drain(stepwise(net, factory_of(graph), label=label,
                                        resume_state=state))
            except Exception as exc:  # the other backend must raise it too
                outcomes.append((type(exc), str(exc)))
            else:
                outcomes.append((result.outputs, result.rounds,
                                 result.completed, metrics_tuple(net)))
        assert outcomes[0] == outcomes[1]
        assert spy[KERNEL_OF[protocol]] == 1
        assert spy["fallbacks"] == 1


# ----------------------------------------------------------------------
# transparent fallback
# ----------------------------------------------------------------------
class TestFallback:
    def test_unported_program_runs_on_object_engine(self):
        graph = gnp_graph(12, 0.3, seed=13)
        network = make_network(graph, backend=ARRAY_BACKEND)
        result = drain(network.run_stepwise(lambda node: IdleProgram()))
        assert result.completed

    def test_run_stepwise_signatures_match(self):
        # The fallback forwards its arguments positionally to the object
        # engine's run_stepwise, so the two parameter lists must agree.
        assert (inspect.signature(ArrayNetwork.run_stepwise).parameters
                == inspect.signature(
                    SynchronousNetwork.run_stepwise).parameters)

    def test_huge_weights_fall_back_bit_identically(self):
        graph = gnp_graph(16, 0.3, seed=15)
        for node in graph.nodes:
            graph.nodes[node]["weight"] = (1 << 80) + node
        assert_bit_identical(graph, layers_factory)

    def test_strict_mode_falls_back(self):
        graph = weighted_gnp(20, 0.2, seed=16)
        network = make_network(graph, backend=ARRAY_BACKEND, strict=True)
        result = drain(stepwise(network, layers_factory(graph)))
        assert result.completed

    def test_no_table_runs_on_object_engine(self, spy):
        graph = weighted_gnp(30, 0.1, seed=18)
        factory, _table = layers_factory(graph)
        arr = make_network(graph, backend=ARRAY_BACKEND)
        obj = make_network(graph, backend=OBJECT_BACKEND)
        a = drain(arr.run_stepwise(factory))
        b = drain(obj.run_stepwise(factory))
        assert a.outputs == b.outputs
        assert metrics_tuple(arr) == metrics_tuple(obj)
        assert spy["MaxISLayersKernel"] == 0
        assert spy["fallbacks"] == 1

    @pytest.mark.parametrize("column,value", [
        ("weight", 2.5),        # not an integer
        ("weight", 1 << 70),    # beyond int64
        ("weight", 0),          # the programs reject it
        ("weight", 999),        # disagrees with the probe's program
        ("trace", LayerTrace()),
    ])
    def test_unusable_table_falls_back(self, spy, column, value):
        graph = weighted_gnp(30, 0.1, seed=19)
        factory, table = layers_factory(graph)
        if column == "weight":
            table["weight"] = [value] + table["weight"][1:]
        else:
            table[column] = value
        network = make_network(graph, backend=ARRAY_BACKEND)
        reference = drain(make_network(
            graph, backend=OBJECT_BACKEND).run_stepwise(factory))
        assert drain(network.run_stepwise(factory, table=table)).outputs \
            == reference.outputs
        assert spy["MaxISLayersKernel"] == 0
        assert spy["fallbacks"] == 1

    def test_fallback_preserves_protocol_round_labels(self):
        # A fallback must not double-charge the per-protocol round
        # breakdown: one run, one label entry.
        graph = gnp_graph(10, 0.4, seed=17)
        for node in graph.nodes:
            graph.nodes[node]["weight"] = 1 << 90  # forces fallback
        network = make_network(graph, backend=ARRAY_BACKEND)
        drain(stepwise(network, layers_factory(graph), label="one"))
        assert set(network.metrics.round_breakdown) == {"one"}


# ----------------------------------------------------------------------
# selection plumbing and pinned constants
# ----------------------------------------------------------------------
class TestSelection:
    def test_make_network_types(self, monkeypatch):
        # Pin the built-in default: clear any REPRO_BACKEND override
        # (CI deliberately runs the whole suite under =array).
        monkeypatch.delenv(BACKEND_ENV, raising=False)
        graph = nx.path_graph(4)
        assert isinstance(make_network(graph), SynchronousNetwork)
        assert not isinstance(make_network(graph), ArrayNetwork)
        assert isinstance(make_network(graph, backend=ARRAY_BACKEND),
                          ArrayNetwork)

    def test_env_variable_selects_backend(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, ARRAY_BACKEND)
        assert resolve_backend(None) == ARRAY_BACKEND
        assert isinstance(make_network(nx.path_graph(3)), ArrayNetwork)
        monkeypatch.setenv(BACKEND_ENV, OBJECT_BACKEND)
        assert resolve_backend(None) == OBJECT_BACKEND

    def test_unknown_backend_rejected(self):
        with pytest.raises(InvalidInstance):
            resolve_backend("gpu")

    def test_instance_backend_validation(self):
        from repro.api import Instance

        with pytest.raises(InvalidInstance):
            Instance(nx.path_graph(3), backend="gpu")
        inst = Instance(nx.path_graph(3), backend=ARRAY_BACKEND)
        assert isinstance(inst.network(), ArrayNetwork)

    def test_registry_surfaces_backend_capability(self):
        from repro.api import list_algorithms

        by_name = {s.name: s for s in list_algorithms()}
        for name in ("maxis-layers", "maxis-coloring", "matching-proposal",
                     "matching-proposal-bipartite"):
            assert by_name[name].backends == ("object", "array"), name
            assert by_name[name].describe()["backends"] == [
                "object", "array"
            ]
        assert by_name["mis-luby"].backends == ("object",)

    def test_kernel_constants_match_the_programs(self):
        # The kernels re-state the program output literals locally (to
        # stay import-light); this pins them to the real definitions.
        assert array_kernels.IN_IS == maxis_layers.IN_IS
        assert array_kernels.NOT_IN_IS == maxis_layers.NOT_IN_IS
        assert array_kernels.IN_IS == maxis_coloring.IN_IS
        assert array_kernels.ACTIVE == MaxISLayersProgram.ACTIVE
        assert array_kernels.CANDIDATE == MaxISLayersProgram.CANDIDATE
        assert array_kernels.ACTIVE == MaxISColoringProgram.ACTIVE
        assert array_kernels.CANDIDATE == MaxISColoringProgram.CANDIDATE
        assert array_kernels.MATCHED == proposal_matching.MATCHED
        assert array_kernels.UNLUCKY == proposal_matching.UNLUCKY
        assert array_kernels.ISOLATED == proposal_matching.ISOLATED
        # Each kernel's message codec covers exactly its program's tags.
        programs = {f"{cls.__module__}.{cls.__qualname__}": cls
                    for cls in PROGRAMS}
        assert set(programs) == set(array_network.KERNELS)
        for path, kernel_cls in array_network.KERNELS.items():
            tags = [tag for tag, _mask, _words in kernel_cls.MESSAGES]
            assert sorted(tags) == sorted(programs[path].TAGS), path

    def test_csr_cache_shared_and_invalidated(self):
        # Networks over the same graph object share one compiled CSR;
        # an in-place topology edit (changed degree sequence) triggers
        # a recompile instead of serving the stale structure.
        graph = gnp_graph(14, 0.3, seed=8)
        first = make_network(graph, seed=1, backend=ARRAY_BACKEND)
        second = make_network(graph, seed=2, backend=ARRAY_BACKEND)
        assert first._ensure_csr() is second._ensure_csr()

        baseline = drain(stepwise(first, layers_factory(graph)))
        graph.add_edge(0, len(graph) + 5)  # new node + edge
        third = make_network(graph, seed=1, backend=ARRAY_BACKEND)
        csr = third._ensure_csr()
        assert csr is not first._ensure_csr()
        assert csr.n == graph.number_of_nodes()
        # and the recompiled network still matches the object backend
        mirror = make_network(graph, seed=1, backend=OBJECT_BACKEND)
        array_result = drain(stepwise(third, layers_factory(graph)))
        object_result = drain(stepwise(mirror, layers_factory(graph)))
        assert array_result.outputs == object_result.outputs
        assert baseline.outputs  # the pre-mutation run stays intact

    def test_kernel_rng_matches_stable_rng(self):
        # ArrayKernel.rng derives its streams lazily per node position;
        # each must stay bit-identical to the object backend's
        # utils.stable_rng(seed, node, proto).
        from repro.utils import stable_rng

        graph = gnp_graph(12, 0.3, seed=5)
        network = make_network(graph, seed=9, backend=ARRAY_BACKEND)
        csr = network._ensure_csr()
        factory, table = layers_factory(graph)
        kernel = array_kernels.MaxISLayersKernel(
            network, csr, factory(csr.nodes[0]), table,
        )
        kernel.bind(proto=2)
        for i, node in enumerate(csr.nodes):
            reference = stable_rng(9, node, 2)
            fast = kernel.rng(i)
            assert fast.getstate() == reference.getstate()
            assert [fast.random() for _ in range(3)] == [
                reference.random() for _ in range(3)
            ]

    def test_kernel_rng_after_banked_draws(self, monkeypatch):
        # Streams drawn from in bulk (draw_below, the bank) come back
        # out of rng() as the stable_rng stream advanced by the same
        # draws, so a checkpoint writes what the object backend would.
        from repro.utils import stable_rng

        monkeypatch.setattr(array_network, "BANK_MIN_STREAMS", 1)
        graph = gnp_graph(40, 0.1, seed=5)
        network = make_network(graph, seed=9, backend=ARRAY_BACKEND)
        csr = network._ensure_csr()
        factory, table = layers_factory(graph)
        kernel = array_kernels.MaxISLayersKernel(
            network, csr, factory(csr.nodes[0]), table,
        )
        kernel.bind(proto=2)
        references = [stable_rng(9, node, 2) for node in csr.nodes]
        everyone = np.arange(csr.n)
        for bound in (kernel.bid_bound, 5, kernel.bid_bound):
            drawn = kernel.draw_below(everyone, bound)
            assert drawn.tolist() == [r.randrange(bound) for r in references]
        assert (kernel._stream == array_network._BANKED).any()
        for i, reference in enumerate(references):
            assert kernel.rng(i).getstate() == reference.getstate()


# ----------------------------------------------------------------------
# the kernel path is really taken (no silent fallback)
# ----------------------------------------------------------------------
PROGRAMS = (MaxISLayersProgram, MaxISColoringProgram, ProposalProgram)


@pytest.fixture
def spy(monkeypatch):
    """Count kernel builds (per kernel class), program constructions
    (``"programs"``) and object-engine runs of array networks
    (``"fallbacks"``)."""

    counts = collections.Counter()

    def counting(cls, key):
        original = cls.__init__

        def init(self, *args, **kwargs):
            original(self, *args, **kwargs)
            counts[key] += 1

        monkeypatch.setattr(cls, "__init__", init)

    for kernel_cls in set(array_network.KERNELS.values()):
        counting(kernel_cls, kernel_cls.__name__)
    for program_cls in PROGRAMS:
        counting(program_cls, "programs")
    object_run = SynchronousNetwork.run_stepwise

    def run_stepwise(self, *args, **kwargs):
        if isinstance(self, ArrayNetwork):
            counts["fallbacks"] += 1
        return object_run(self, *args, **kwargs)

    monkeypatch.setattr(SynchronousNetwork, "run_stepwise", run_stepwise)
    return counts


class TestKernelPath:
    def test_maxis_layers_phases(self, spy):
        graph = weighted_gnp(60, 0.08, seed=1)
        network = make_network(graph, seed=1, backend=ARRAY_BACKEND)
        drain(maxis_layers.maxis_layers_phases(graph, seed=1,
                                               network=network))
        assert spy == {"MaxISLayersKernel": 1, "programs": 1}

    def test_maxis_coloring_phases(self, spy):
        graph = weighted_gnp(60, 0.08, seed=2)
        network = make_network(graph, backend=ARRAY_BACKEND)
        drain(maxis_coloring.maxis_coloring_phases(graph, network=network))
        assert spy == {"MaxISColoringKernel": 1, "programs": 1}

    def test_bipartite_proposal_phases(self, spy):
        graph = bipartite_graph(20, 24, 0.18, seed=3)
        left = {v for v in graph.nodes if v % 2 == 0}
        drain(proposal_matching.bipartite_proposal_phases(
            graph, left, set(graph.nodes) - left, seed=3,
            backend=ARRAY_BACKEND,
        ))
        assert spy == {"ProposalKernel": 1, "programs": 1}

    @pytest.mark.parametrize("runner,kernel", [
        ("layers", "MaxISLayersKernel"),
        ("coloring", "MaxISColoringKernel"),
        ("proposal", "ProposalKernel"),
    ])
    def test_network_over_a_reordered_graph(self, spy, runner, kernel):
        # The table follows the supplied network's node order, not the
        # graph argument's, so the kernel still runs and still matches
        # the object engine on that network.
        graph = bipartite_graph(20, 24, 0.18, seed=8)
        assign_node_weights(graph, 64, scheme="log-uniform", seed=9)
        reordered = nx.Graph()
        reordered.add_nodes_from(reversed(list(graph.nodes(data=True))))
        reordered.add_edges_from(graph.edges)
        left = {v for v in graph.nodes if v % 2 == 0}

        def run(backend):
            network = make_network(reordered, seed=8, backend=backend)
            if runner == "layers":
                stream = maxis_layers.maxis_layers_phases(
                    graph, seed=8, network=network)
            elif runner == "coloring":
                stream = maxis_coloring.maxis_coloring_phases(
                    graph, network=network)
            else:
                stream = proposal_matching.bipartite_proposal_phases(
                    graph, left, set(graph.nodes) - left, network=network)
            solutions = [checkpoint.solution for checkpoint in stream]
            return solutions, metrics_tuple(network)

        reference = run(OBJECT_BACKEND)
        spy.clear()
        assert run(ARRAY_BACKEND) == reference
        assert spy == {kernel: 1, "programs": 1}

    def test_general_proposal_repetitions(self, spy, monkeypatch):
        built = []
        crossing = proposal_matching.crossing_subgraph
        monkeypatch.setattr(proposal_matching, "crossing_subgraph",
                            lambda *args: built.append(1) or crossing(*args))
        graph = gnp_graph(80, 0.06, seed=5)
        drain(proposal_matching.general_proposal_phases(
            graph, seed=5, backend=ARRAY_BACKEND,
        ))
        repetitions = spy["ProposalKernel"]
        assert repetitions >= 2
        assert spy == {"ProposalKernel": repetitions,
                       "programs": repetitions}
        assert not built  # no networkx sub-graph on the kernel path


# ----------------------------------------------------------------------
# Lemma B.14 repetitions on a mask of the parent CSR
# ----------------------------------------------------------------------
def random_splits(graph, seed, count=4):
    """``(remaining, left, right)`` triples shaped like Lemma B.14's:
    a shrinking pool (random nodes leave, as if matched) and a random
    split of it."""

    rng = random.Random(seed)
    remaining = set(graph.nodes)
    for _ in range(count):
        for v in [v for v in remaining if rng.random() < 0.2]:
            remaining.discard(v)
        left = {v for v in remaining if rng.random() < 0.5}
        yield remaining, left, remaining - left


def assert_same_csr(sliced, fresh):
    assert sliced.nodes == fresh.nodes
    assert sliced.index == fresh.index
    assert sliced.n == fresh.n and sliced.m2 == fresh.m2
    assert sliced.unique_reprs == fresh.unique_reprs
    for name in ("rank", "degree", "indptr", "rows", "indices", "mirror"):
        assert np.array_equal(getattr(sliced, name), getattr(fresh, name)), \
            name
    # Row contents as neighbor ids (not just positions).
    for i in range(fresh.n):
        row = slice(int(fresh.indptr[i]), int(fresh.indptr[i + 1]))
        assert ([sliced.nodes[j] for j in sliced.indices[row]]
                == [fresh.nodes[j] for j in fresh.indices[row]])


class TestMaskedRepetition:
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_sub_csr_equals_a_fresh_compile(self, family):
        graph = FAMILIES[family](40, 3)
        parent = graph_csr(graph)
        for remaining, left, right in random_splits(graph, family):
            sub = proposal_matching.crossing_subgraph(graph, remaining,
                                                      left, right)
            sliced = proposal_matching.crossing_csr(parent, remaining, left)
            if sub.number_of_edges() == 0:
                assert sliced is None
                continue
            csr, on_left = sliced
            assert_same_csr(csr, GraphCSR(sub))
            assert on_left.tolist() == [v in left for v in sub.nodes]

    def test_networks_match_the_networkx_path(self, monkeypatch):
        # Same seed, bandwidth, protocol index and metrics per
        # repetition as the networks the sub-graph path builds.
        graph = gnp_graph(90, 0.05, seed=6)
        captured = {"masked": [], "networkx": []}
        over_csr = ArrayNetwork.over_csr.__func__

        def capture_masked(cls, *args, **kwargs):
            network = over_csr(cls, *args, **kwargs)
            captured["masked"].append(network)
            return network

        make = proposal_matching.make_network

        def capture_networkx(*args, **kwargs):
            network = make(*args, **kwargs)
            captured["networkx"].append(network)
            return network

        monkeypatch.setattr(ArrayNetwork, "over_csr",
                            classmethod(capture_masked))
        monkeypatch.setattr(proposal_matching, "make_network",
                            capture_networkx)
        masked = drain(proposal_matching.general_proposal_phases(
            graph, seed=6, backend=ARRAY_BACKEND))
        monkeypatch.setattr(proposal_matching, "_maskable_csr",
                            lambda graph, backend: None)
        reference = drain(proposal_matching.general_proposal_phases(
            graph, seed=6, backend=ARRAY_BACKEND))
        assert masked[0] == reference[0]
        assert masked[1] == reference[1]
        assert masked[2].breakdown == reference[2].breakdown
        assert len(captured["masked"]) == len(captured["networkx"]) >= 2
        for a, b in zip(captured["masked"], captured["networkx"]):
            assert (a.seed, a.bandwidth, a._protocol_index, a.model) == \
                (b.seed, b.bandwidth, b._protocol_index, b.model)
            assert metrics_tuple(a) == metrics_tuple(b)
            assert a._graph is None  # never built on the kernel path

    def test_kernel_fallback_builds_the_subgraph(self, monkeypatch):
        # A run the kernel cannot model still reproduces the object
        # engine, building the networkx sub-graph on demand.
        graph = gnp_graph(60, 0.08, seed=7)
        reference = drain(proposal_matching.general_proposal_phases(
            graph, seed=7, backend=OBJECT_BACKEND))
        monkeypatch.setitem(array_network.KERNELS,
                            array_kernels.ProposalKernel.PROGRAM,
                            None)
        masked = drain(proposal_matching.general_proposal_phases(
            graph, seed=7, backend=ARRAY_BACKEND))
        assert masked[0] == reference[0]
        assert masked[1] == reference[1]
