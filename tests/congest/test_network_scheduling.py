"""Round-loop scheduling, per-run metrics and payload-cache tests.

Covers the simulator's edge paths: ``quiescence_halts`` early exit,
``RoundLimitExceeded`` pending-node reporting, participant-subset
neighbor filtering, the per-run ``RunResult.metrics`` delta, and the
bounded payload bit-accounting cache.
"""

import pytest

from repro.congest import (
    NetworkMetrics,
    NodeProgram,
    SynchronousNetwork,
)
from repro.congest.message import payload_bits
from repro.errors import RoundLimitExceeded
from repro.graphs import path_graph


class Relay(NodeProgram):
    """Node 0 starts a token that is relayed down the path; each node
    halts after forwarding (or after receiving, at the end)."""

    def on_start(self, ctx):
        if ctx.node == 0:
            ctx.send(1, "token")
            ctx.halt("sent")

    def on_round(self, ctx):
        for src, payload in ctx.inbox.items():
            if payload == ("token",):
                nxt = ctx.node + 1
                if nxt in ctx.neighbors:
                    ctx.send(nxt, "token")
                ctx.halt("forwarded")


class HaltAfter(NodeProgram):
    def __init__(self, rounds):
        self.rounds = rounds

    def on_round(self, ctx):
        if ctx.round + 1 >= self.rounds:
            ctx.halt("done")


class NeverHalts(NodeProgram):
    def on_round(self, ctx):
        pass


class TestQuiescence:
    def test_quiescence_does_not_cut_off_in_flight_relay(self):
        # The token takes one round per hop; every intermediate round
        # delivers exactly one message, so quiescence must not trigger
        # until the relay is over.
        g = path_graph(5)
        net = SynchronousNetwork(g, seed=0)
        result = net.run(lambda n: Relay(), max_rounds=50,
                         quiescence_halts=True)
        assert result.outputs[0] == "sent"
        assert result.outputs[4] == "forwarded"
        assert result.rounds >= 4

    def test_quiescent_run_reports_incomplete(self):
        g = path_graph(3)
        net = SynchronousNetwork(g, seed=0)
        result = net.run(lambda n: NeverHalts(), max_rounds=50,
                         quiescence_halts=True)
        assert result.completed is False
        assert result.output_set(None) == set(g.nodes)

    def test_completed_run_reports_complete(self):
        g = path_graph(3)
        net = SynchronousNetwork(g, seed=0)
        result = net.run(lambda n: HaltAfter(2), max_rounds=10)
        assert result.completed is True


class TestRoundLimitPending:
    def test_pending_names_exactly_the_unhalted(self):
        # Even nodes halt after one round; odd nodes never halt.
        g = path_graph(6)
        net = SynchronousNetwork(g, seed=0)

        def factory(node):
            return HaltAfter(1) if node % 2 == 0 else NeverHalts()

        with pytest.raises(RoundLimitExceeded) as err:
            net.run(factory, max_rounds=7)
        assert err.value.rounds == 7
        assert sorted(err.value.pending) == [1, 3, 5]


class TestParticipantSubset:
    def test_neighbor_filtering_and_delivery(self):
        # 0-1-2-3-4: only {1, 2, 4} participate.  1 and 2 stay
        # neighbors; 4 is isolated (3 is not playing).
        g = path_graph(5)
        net = SynchronousNetwork(g, seed=0)
        seen = {}

        class Inspect(NodeProgram):
            def __init__(self, node):
                self.node = node

            def on_start(self, ctx):
                seen[ctx.node] = tuple(ctx.neighbors)
                ctx.broadcast("hi")

            def on_round(self, ctx):
                ctx.halt(sorted(ctx.inbox))

        result = net.run(Inspect, participants=[1, 2, 4], max_rounds=5)
        assert seen[1] == (2,)
        assert seen[2] == (1,)
        assert seen[4] == ()
        assert result.outputs[1] == [2]
        assert result.outputs[2] == [1]
        assert result.outputs[4] == []


class TestRunStepwise:
    def test_checkpoint_every_zero_rejected(self):
        g = path_graph(2)
        net = SynchronousNetwork(g, seed=0)
        with pytest.raises(ValueError):
            next(net.run_stepwise(lambda n: HaltAfter(1), max_rounds=5,
                                  checkpoint_every=0))

    def test_snapshots_track_newly_halted_and_final(self):
        g = path_graph(4)
        net = SynchronousNetwork(g, seed=0)
        stepper = net.run_stepwise(lambda n: HaltAfter(n + 1),
                                   max_rounds=10, checkpoint_every=1)
        snapshots = []
        while True:
            try:
                snapshots.append(next(stepper))
            except StopIteration as stop:
                result = stop.value
                break
        assert result.completed
        # node i halts in round i (HaltAfter(i+1)); one per snapshot
        assert [s.newly_halted for s in snapshots[:4]] == [
            ((0, "done"),), ((1, "done"),), ((2, "done"),),
            ((3, "done"),),
        ]
        assert snapshots[-1].final
        assert snapshots[-1].halted == 4
        assert all(not s.final for s in snapshots[:-1])

    def test_stop_on_limit_returns_partial_instead_of_raising(self):
        g = path_graph(3)
        net = SynchronousNetwork(g, seed=0)
        result = net.run(lambda n: NeverHalts(), max_rounds=4,
                         stop_on_limit=True)
        assert result.completed is False
        assert result.rounds == 4
        assert result.output_set(None) == set(g.nodes)


class TestPerRunMetrics:
    def test_run_metrics_are_isolated_deltas(self):
        g = path_graph(4)
        net = SynchronousNetwork(g, seed=0)
        first = net.run(lambda n: Relay(), max_rounds=20, label="first")
        second = net.run(lambda n: Relay(), max_rounds=20, label="second")
        assert first.metrics is not net.metrics
        assert second.metrics is not net.metrics
        # each delta carries only its own run
        assert first.metrics.rounds == first.rounds
        assert second.metrics.rounds == second.rounds
        assert first.metrics.round_breakdown == {"first": first.rounds}
        assert second.metrics.round_breakdown == {"second": second.rounds}
        assert first.metrics.messages == second.metrics.messages
        # the network counter is cumulative across both
        assert net.metrics.messages == (
            first.metrics.messages + second.metrics.messages
        )
        assert net.metrics.rounds == first.rounds + second.rounds
        assert net.metrics.round_breakdown == {
            "first": first.rounds, "second": second.rounds,
        }

    def test_per_run_max_bits_not_cumulative(self):
        class Small(NodeProgram):
            def on_round(self, ctx):
                ctx.broadcast("x")
                ctx.halt()

        class Big(NodeProgram):
            def on_round(self, ctx):
                ctx.broadcast("x" * 64)
                ctx.halt()

        g = path_graph(2)
        net = SynchronousNetwork(g, model="LOCAL", seed=0)
        big = net.run(lambda n: Big(), max_rounds=3)
        small = net.run(lambda n: Small(), max_rounds=3)
        assert small.metrics.max_bits_per_edge_round < \
            big.metrics.max_bits_per_edge_round
        assert net.metrics.max_bits_per_edge_round == \
            big.metrics.max_bits_per_edge_round

    def test_merge_sums_payload_cache(self):
        a = NetworkMetrics(payload_cache={"hits": 2, "misses": 1})
        b = NetworkMetrics(payload_cache={"hits": 3, "evictions": 4})
        a.merge(b)
        assert a.payload_cache == {"hits": 5, "misses": 1, "evictions": 4}

    def test_cache_hit_rate(self):
        metrics = NetworkMetrics(payload_cache={"hits": 3, "misses": 1})
        assert metrics.cache_hit_rate() == 0.75
        assert NetworkMetrics().cache_hit_rate() == 0.0


class TestPayloadCache:
    def test_hits_and_misses_counted(self):
        class Chatty(NodeProgram):
            def on_round(self, ctx):
                ctx.broadcast("same-tag")
                if ctx.round >= 2:
                    ctx.halt()

        g = path_graph(3)
        net = SynchronousNetwork(g, seed=0)
        result = net.run(lambda n: Chatty(), max_rounds=10)
        cache = net.metrics.payload_cache
        # one unique payload: 1 miss, everything else hits
        assert cache["misses"] == 1
        assert cache["hits"] == net.metrics.messages - 1
        assert result.metrics.payload_cache == cache

    def test_eviction_keeps_cache_bounded_and_bits_exact(self):
        class Unique(NodeProgram):
            def on_round(self, ctx):
                # a fresh payload every node and round: all misses
                ctx.broadcast("tag", ctx.node * 1000 + ctx.round)
                if ctx.round >= 5:
                    ctx.halt()

        g = path_graph(4)
        net = SynchronousNetwork(g, seed=0)
        net._bits_cache_limit = 3
        net.run(lambda n: Unique(), max_rounds=10)
        assert len(net._bits_cache) <= 3
        assert net.metrics.payload_cache["evictions"] > 0
        assert net.metrics.payload_cache["misses"] > 3
        # metering stayed exact despite evictions
        expected = payload_bits(("tag", 2003))
        assert net.metrics.bits > 0
        assert net.metrics.max_bits_per_edge_round >= expected

    def test_evicted_payload_can_be_recached(self):
        net = SynchronousNetwork(path_graph(2), seed=0)
        net._bits_cache_limit = 2
        cache = net._bits_cache
        for payload in (("a",), ("b",), ("c",)):
            bits = payload_bits(payload)
            if len(cache) >= net._bits_cache_limit:
                del cache[next(iter(cache))]
            cache[payload] = bits
        assert ("a",) not in cache
        assert set(cache) == {("b",), ("c",)}
