"""Round-loop scheduling, per-run metrics and payload-cache tests.

Covers the simulator's edge paths: multi-round relays, the
``completed`` flag of a budget-cut run, ``RoundLimitExceeded``
pending-node reporting, the per-run ``RunResult.metrics`` delta, and
the bounded payload bit-accounting cache.
"""

import pytest

from repro.congest import NodeProgram, SynchronousNetwork
from repro.congest import message
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
        # The token takes one round per hop, and each node halts only
        # once it has it, so the run lasts until the relay is over.
        g = path_graph(5)
        net = SynchronousNetwork(g, seed=0)
        result = net.run(lambda n: Relay(), max_rounds=50)
        assert result.outputs[0] == "sent"
        assert result.outputs[4] == "forwarded"
        assert result.rounds >= 4

    def test_quiescent_run_reports_incomplete(self):
        # A budget cut is the one way a run ends with nodes unhalted.
        g = path_graph(3)
        net = SynchronousNetwork(g, seed=0)
        result = net.run(lambda n: NeverHalts(), max_rounds=50,
                         stop_on_limit=True)
        assert result.completed is False
        assert result.rounds == 50
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


class TestPayloadCache:
    """The module-wide payload memo every simulator and the MPC shuffle
    read (:data:`repro.congest.message.BITS_MEMO`)."""

    @pytest.fixture(autouse=True)
    def empty_memo(self):
        message.BITS_MEMO.clear()
        yield
        message.BITS_MEMO.clear()

    def test_eviction_keeps_cache_bounded_and_bits_exact(self,
                                                         monkeypatch):
        class Unique(NodeProgram):
            def on_round(self, ctx):
                # a fresh payload every node and round: all misses
                ctx.broadcast("tag", ctx.node * 1000 + ctx.round)
                if ctx.round >= 5:
                    ctx.halt(ctx.round)

        def run():
            message.BITS_MEMO.clear()
            net = SynchronousNetwork(path_graph(4), seed=0)
            return net, net.run(lambda n: Unique(), max_rounds=10)

        reference_net, reference = run()
        # the default limit never evicts here; the tiny one must
        assert len(message.BITS_MEMO) > 3
        monkeypatch.setattr(message, "BITS_MEMO_LIMIT", 3)
        net, result = run()
        assert len(message.BITS_MEMO) <= 3
        # metering stayed exact despite evictions
        assert result.outputs == reference.outputs
        for counter in ("messages", "bits", "max_bits_per_edge_round",
                        "violations"):
            assert getattr(result.metrics, counter) == \
                getattr(reference.metrics, counter), counter
            assert getattr(net.metrics, counter) == \
                getattr(reference_net.metrics, counter), counter

    def test_evicted_payload_can_be_recached(self, monkeypatch):
        monkeypatch.setattr(message, "BITS_MEMO_LIMIT", 2)
        for payload in (("a",), ("b",), ("c",)):
            assert message.memo_bits(payload) == payload_bits(payload)
        assert ("a",) not in message.BITS_MEMO
        assert ("c",) in message.BITS_MEMO
        assert message.memo_bits(("a",)) == payload_bits(("a",))
        assert message.BITS_MEMO[("a",)] == payload_bits(("a",))
        assert len(message.BITS_MEMO) <= 2
