"""Tests for :class:`repro.api.Instance` and the instance helpers."""

import dataclasses

import pytest

from repro.api import CONGEST, LOCAL, MPC, Instance, random_instance
from repro.errors import InvalidInstance
from repro.graphs import gnp_graph, max_degree, node_weight


@pytest.fixture
def graph():
    return gnp_graph(12, 0.3, seed=1)


class TestValidation:
    def test_unknown_model_rejected(self, graph):
        with pytest.raises(InvalidInstance):
            Instance(graph, model="ASYNC")

    def test_nonpositive_eps_rejected(self, graph):
        with pytest.raises(InvalidInstance):
            Instance(graph, eps=0.0)
        with pytest.raises(InvalidInstance):
            Instance(graph, eps=-1.0)

    @pytest.mark.parametrize("max_rounds", [-1, 2.5, "4"])
    def test_max_rounds_must_be_a_non_negative_integer(self, graph,
                                                       max_rounds):
        with pytest.raises(InvalidInstance, match="max_rounds"):
            Instance(graph, max_rounds=max_rounds)
        with pytest.raises(InvalidInstance, match="max_rounds"):
            dataclasses.replace(Instance(graph), max_rounds=max_rounds)
        assert Instance(graph, max_rounds=0).max_rounds == 0

    @pytest.mark.parametrize("factor", [0, -2, 0.5])
    def test_bandwidth_factor_below_one_rejected(self, graph, factor):
        with pytest.raises(InvalidInstance, match="bandwidth_factor"):
            Instance(graph, bandwidth_factor=factor)
        assert Instance(graph, bandwidth_factor=1).bandwidth_factor == 1

    def test_frozen(self, graph):
        instance = Instance(graph)
        with pytest.raises(dataclasses.FrozenInstanceError):
            instance.seed = 7

    def test_mpc_model_is_normalized(self, graph):
        assert Instance(graph, model="mpc").model == MPC
        assert Instance(graph, model="congest").model == CONGEST

    def test_mpc_topology_validated(self, graph):
        with pytest.raises(InvalidInstance):
            Instance(graph, model=MPC, machines=0)
        with pytest.raises(InvalidInstance):
            Instance(graph, model=MPC, delta=0.0)
        with pytest.raises(InvalidInstance):
            Instance(graph, model=MPC, delta=1.5)
        ok = Instance(graph, model=MPC, machines=3, delta=0.5)
        assert (ok.machines, ok.delta) == (3, 0.5)


class TestDerivedViews:
    def test_counts_and_max_degree(self, graph):
        instance = Instance(graph)
        assert instance.n == graph.number_of_nodes()
        assert instance.m == graph.number_of_edges()
        assert instance.max_degree == max_degree(graph)

    def test_network_defaults_to_congest(self, graph):
        assert Instance(graph).network().model == CONGEST
        assert Instance(graph, model=LOCAL).network().model == LOCAL

    def test_network_is_seeded_and_metered(self, graph):
        network = Instance(graph, seed=9).network()
        assert network.seed == 9
        assert network.metrics.messages == 0


class TestRandomInstance:
    def test_maxis_gets_node_weights(self):
        instance = random_instance("maxis", n=10, p=0.3, max_weight=8,
                                   seed=4)
        weights = {node_weight(instance.graph, v)
                   for v in instance.graph.nodes}
        assert weights and weights <= set(range(1, 9))

    def test_matching_gets_edge_weights(self):
        instance = random_instance("matching", n=10, p=0.3, max_weight=8,
                                   seed=4)
        assert all("weight" in d
                   for _, _, d in instance.graph.edges(data=True))

    def test_cli_seed_layout(self):
        """Graph seed, weight seed + 1, algorithm seed + 2 (the historic
        ``python -m repro`` layout the parity guarantee relies on)."""

        instance = random_instance("maxis", n=10, p=0.3, seed=4)
        assert instance.seed == 6
        reference = gnp_graph(10, 0.3, seed=4)
        assert set(instance.graph.edges) == set(reference.edges)

    def test_unknown_problem_rejected(self):
        with pytest.raises(InvalidInstance):
            random_instance("vertex-cover")
