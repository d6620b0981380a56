"""Differential checks of the ``mpc`` model against the default one.

Over small weighted graphs of every generator family, an MPC solve
must return what the default-model solve returns — whatever the
machine count and whether or not the sparsifier sheds traffic — and
the shuffle must charge every dropped message to its sender's machine.
"""

from __future__ import annotations

import collections

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.api import Instance, solve
from repro.errors import MPCCapacityError
from repro.graphs import (
    FAMILIES,
    assign_node_weights,
    complete_graph,
    star_graph,
)
from repro.mpc import AdaptiveSparsifier, MPCNetwork, mpc_greedy_mis


class TestModelDifferential:
    @settings(max_examples=150, deadline=None)
    @given(family=st.sampled_from(sorted(FAMILIES)),
           n=st.integers(5, 24), graph_seed=st.integers(0, 50),
           seed=st.integers(0, 3), machines=st.sampled_from(["1", "3", "n"]),
           sparsify=st.booleans(),
           algorithm=st.sampled_from(["matching-proposal", "maxis-greedy"]))
    def test_mpc_solve_equals_default_model(
            self, family, n, graph_seed, seed, machines, sparsify,
            algorithm):
        graph = FAMILIES[family](n, graph_seed)
        assign_node_weights(graph, 64, seed=graph_seed)
        count = {"1": 1, "3": 3, "n": graph.number_of_nodes()}[machines]
        base = solve(Instance(graph, seed=seed), algorithm)
        try:
            # A tight budget, so the sparsifier sheds traffic whenever
            # it is on.
            mpc = solve(Instance(graph, seed=seed, model="mpc",
                                 machines=count),
                        algorithm, capacity_factor=1.0, sparsify=sparsify)
        except MPCCapacityError:
            assume(False)
        assert mpc.solution == base.solution
        assert mpc.objective == base.objective
        if algorithm == "matching-proposal":
            assert mpc.rounds == base.rounds
        assert mpc.extras["mpc"]["machines"] == count


class TestDropAttribution:
    def test_each_machine_is_charged_the_drops_its_nodes_sent(self):
        """The dense greedy exclusion round sheds traffic from several
        machines; every machine's ledger must count exactly the dropped
        messages whose sender it hosts."""

        dropped = []
        thin_round = AdaptiveSparsifier.thin_round

        def recording(self, round_index, remote, planned, assignment,
                      mark):
            kept = thin_round(self, round_index, remote, planned,
                              assignment, mark)
            survivors = {id(msg) for msg in kept}
            dropped.extend(msg for msg in remote
                           if id(msg) not in survivors)
            return kept

        graph = complete_graph(40)
        network = MPCNetwork(graph, seed=0)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(AdaptiveSparsifier, "thin_round", recording)
            mpc_greedy_mis(graph, network=network)

        sent = collections.Counter(
            network.machine_of(src) for src, _dst, _payload in dropped)
        assert len(sent) > 1
        assert {ledger.machine: ledger.dropped_messages
                for ledger in network.ledgers} == \
            {index: sent[index] for index in range(network.machines)}


class TestGreedyRedundancyGroup:
    """On a star whose leaves all outweigh the centre, every leaf joins
    in round 0 and sends ``joined`` to the centre: 30 notices in one
    ``("excl", 0)`` group, of which one must arrive.  The group is what
    lets the tight fleets pass; without it ``capacity_factor`` 1.0 and
    2.0 raise :class:`~repro.errors.MPCCapacityError`."""

    @staticmethod
    def weighted_star():
        graph = star_graph(30)
        graph.nodes[0]["weight"] = 1
        for leaf in range(1, 31):
            graph.nodes[leaf]["weight"] = 10 + leaf
        return graph

    @pytest.mark.parametrize("capacity_factor,dropped,would_violate", [
        (1.0, 41, True),
        (2.0, 36, True),
        (4.0, 27, False),
    ])
    def test_sparsify_stats_pinned(self, capacity_factor, dropped,
                                   would_violate):
        report = solve(Instance(self.weighted_star(), model="mpc",
                                machines=4),
                       "maxis-greedy", capacity_factor=capacity_factor)
        assert report.rounds == 2
        assert report.objective == 765
        assert report.solution == frozenset(range(1, 31))
        mpc = report.extras["mpc"]
        assert mpc["sparsify"] == {
            "triggers": 2,
            "dropped_messages": dropped,
            "would_violate_without": would_violate,
            "rounds_engaged": [0, 1],
        }
        assert mpc["dropped_messages"] == dropped
