"""Machine-ledger invariants: bit parity with CONGEST, hard capacity."""

from __future__ import annotations

import pytest

from repro.congest import make_network
from repro.core import bipartite_proposal_phases
from repro.errors import MPCCapacityError
from repro.graphs import complete_graph, gnp_graph, random_bipartite_graph
from repro.mpc import (
    MPCNetwork,
    aggregate_ledgers,
    mpc_greedy_mis,
    run_bipartite_proposal,
)
from repro.utils import drain


def _bipartite():
    graph = random_bipartite_graph(10, 10, 0.3, seed=1)
    left = {v for v, data in graph.nodes(data=True)
            if data["side"] == "A"}
    return graph, left


class TestBitSumInvariant:
    def test_machine_bits_sum_to_congest_bits_at_one_node_per_machine(
            self):
        """With machines == n every message crosses machines, so the
        per-machine ledgers must add up to exactly the CONGEST
        simulator's global NetworkMetrics for the same protocol run."""

        graph, left = _bipartite()
        right = set(graph.nodes) - left
        seed = 7

        congest = make_network(graph, seed=seed)
        result = drain(bipartite_proposal_phases(
            graph, left, right, seed=seed, network=congest))

        mpc = MPCNetwork(graph, machines=graph.number_of_nodes(),
                         capacity_factor=1e9, sparsify=False)
        matching, unlucky, rounds = run_bipartite_proposal(
            mpc, graph, left, seed=seed)

        assert matching == result.matching
        assert unlucky == result.unlucky
        assert rounds == result.rounds
        totals = aggregate_ledgers(mpc.ledgers)
        assert totals["bits_sent"] == congest.metrics.bits
        assert totals["bits_sent"] == totals["bits_received"]
        assert totals["messages_sent"] == congest.metrics.messages

    def test_local_messages_are_free(self):
        """With one machine nothing crosses: loads and bits stay zero
        while the protocol still runs to the same matching."""

        graph, left = _bipartite()
        right = set(graph.nodes) - left
        single = MPCNetwork(graph, machines=1, capacity_factor=1e9)
        matching, _, _ = run_bipartite_proposal(single, graph, left,
                                                seed=7)
        reference = drain(bipartite_proposal_phases(graph, left, right,
                                                    seed=7))
        assert matching == reference.matching
        summary = single.summary()
        assert summary["bits_sent"] == 0
        assert summary["max_load"] == 0
        assert summary["local_messages"] > 0


class TestCapacityError:
    def test_violation_raises_at_documented_threshold(self):
        """The hard check is deterministic: a complete-graph greedy
        round moves ~n^2 messages, so with sparsification off and
        capacity pinned below that the shuffle must raise — with the
        violating machine, round, load and capacity attached."""

        graph = complete_graph(24)
        network = MPCNetwork(graph, machines=6, delta=0.5,
                             capacity_factor=1.0, sparsify=False)
        with pytest.raises(MPCCapacityError) as excinfo:
            mpc_greedy_mis(graph, network=network)
        err = excinfo.value
        assert 0 <= err.machine < 6
        assert err.capacity == network.capacity
        assert err.load > err.capacity
        assert err.round_index >= 0
        assert str(err.capacity) in str(err)

    def test_same_configuration_raises_identically(self):
        def observe():
            graph = complete_graph(24)
            network = MPCNetwork(graph, machines=6, delta=0.5,
                                 capacity_factor=1.0, sparsify=False)
            try:
                mpc_greedy_mis(graph, network=network)
            except MPCCapacityError as exc:
                return (exc.machine, exc.round_index, exc.load,
                        exc.capacity)
            raise AssertionError("expected MPCCapacityError")

        assert observe() == observe()


class TestLedgerAccounting:
    def test_rounds_and_peaks_recorded_per_machine(self):
        graph = gnp_graph(36, 0.15, seed=2)
        network = MPCNetwork(graph, machines=6)
        mpc_greedy_mis(graph, network=network)
        summary = network.summary()
        assert summary["rounds"] == network.round > 0
        assert len(summary["peak_loads"]) == 6
        assert summary["max_load"] == max(summary["peak_loads"])
        assert summary["sublinear_ok"]
        for ledger in network.ledgers:
            assert ledger.rounds <= summary["rounds"]
            assert ledger.peak_memory_words > 0
