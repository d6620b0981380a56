"""Tests for the synchronous network simulator semantics."""

import pytest

from repro.congest import (
    CONGEST,
    LOCAL,
    IdleProgram,
    NodeProgram,
    SynchronousNetwork,
)
from repro.errors import BandwidthViolation, RoundLimitExceeded
from repro.graphs import path_graph


class EchoOnce(NodeProgram):
    """Broadcast own id once, record what was heard, halt on round 1."""

    def on_start(self, ctx):
        ctx.broadcast("hello", str(ctx.node))

    def on_round(self, ctx):
        heard = sorted(
            payload[1] for payload in ctx.inbox.values()
            if payload and payload[0] == "hello"
        )
        ctx.halt(heard)


class CountRounds(NodeProgram):
    def __init__(self, rounds):
        self.rounds = rounds

    def on_round(self, ctx):
        if ctx.round + 1 >= self.rounds:
            ctx.halt(ctx.round + 1)


class NeverHalts(NodeProgram):
    def on_round(self, ctx):
        ctx.broadcast("tick")


class BigTalker(NodeProgram):
    def on_round(self, ctx):
        ctx.broadcast("x" * 500)
        ctx.halt()


class TestDelivery:
    def test_start_messages_arrive_in_round_zero(self):
        g = path_graph(3)
        net = SynchronousNetwork(g, seed=1)
        result = net.run(lambda n: EchoOnce(), max_rounds=5)
        assert result.outputs[0] == ["1"]
        assert result.outputs[1] == ["0", "2"]
        assert result.outputs[2] == ["1"]

    def test_messages_to_halted_nodes_are_dropped(self):
        class HaltThenReceive(NodeProgram):
            def on_round(self, ctx):
                if ctx.node == 0:
                    ctx.halt("early")
                elif ctx.round == 0:
                    ctx.send(0, "late")
                else:
                    ctx.halt("done")

        g = path_graph(2)
        net = SynchronousNetwork(g, seed=1)
        result = net.run(lambda n: HaltThenReceive(), max_rounds=5)
        assert result.outputs[0] == "early"
        assert result.outputs[1] == "done"

    def test_send_to_non_neighbor_raises(self):
        class BadSender(NodeProgram):
            def on_round(self, ctx):
                ctx.send(99, "oops")

        g = path_graph(2)
        net = SynchronousNetwork(g, seed=1)
        with pytest.raises(ValueError):
            net.run(lambda n: BadSender(), max_rounds=2)

    def test_non_neighbor_send_after_a_legal_one_raises(self):
        class SendsTwice(NodeProgram):
            def on_round(self, ctx):
                ctx.send(ctx.neighbors[0], "ok")
                ctx.send(99, "oops")

        net = SynchronousNetwork(path_graph(2), seed=1)
        with pytest.raises(ValueError):
            net.run(lambda n: SendsTwice(), max_rounds=2)

    def test_double_send_overwrites(self):
        class DoubleSender(NodeProgram):
            def on_round(self, ctx):
                if ctx.node == 0 and ctx.round == 0:
                    ctx.send(1, "first")
                    ctx.send(1, "second")
                elif ctx.node == 1 and ctx.round == 1:
                    ctx.halt([p for p in ctx.inbox.values()])
                elif ctx.round >= 1:
                    ctx.halt(None)

        g = path_graph(2)
        net = SynchronousNetwork(g, seed=1)
        result = net.run(lambda n: DoubleSender(), max_rounds=5)
        assert result.outputs[1] == [("second",)]


class TestTermination:
    def test_rounds_counted(self):
        g = path_graph(4)
        net = SynchronousNetwork(g, seed=0)
        result = net.run(lambda n: CountRounds(3), max_rounds=10)
        assert result.rounds == 3
        assert all(v == 3 for v in result.outputs.values())

    def test_round_limit_raises_with_pending(self):
        g = path_graph(3)
        net = SynchronousNetwork(g, seed=0)
        with pytest.raises(RoundLimitExceeded) as err:
            net.run(lambda n: NeverHalts(), max_rounds=4)
        assert err.value.rounds == 4
        assert len(err.value.pending) == 3

    def test_idle_program_finishes_immediately(self):
        g = path_graph(5)
        net = SynchronousNetwork(g, seed=0)
        result = net.run(lambda n: IdleProgram("done"), max_rounds=2)
        assert result.rounds == 0
        assert result.output_set("done") == set(g.nodes)


class TestMetrics:
    def test_message_and_bit_counts(self):
        g = path_graph(2)
        net = SynchronousNetwork(g, seed=0)
        net.run(lambda n: EchoOnce(), max_rounds=3)
        assert net.metrics.messages == 2
        assert net.metrics.bits > 0
        assert net.metrics.rounds >= 1

    def test_metrics_accumulate_across_protocols(self):
        g = path_graph(3)
        net = SynchronousNetwork(g, seed=0)
        net.run(lambda n: EchoOnce(), max_rounds=3, label="first")
        net.run(lambda n: EchoOnce(), max_rounds=3, label="second")
        assert net.metrics.round_breakdown["first"] >= 1
        assert net.metrics.round_breakdown["second"] >= 1

    def test_congest_violation_recorded(self):
        g = path_graph(2)
        net = SynchronousNetwork(g, model=CONGEST, seed=0)
        net.run(lambda n: BigTalker(), max_rounds=3)
        assert net.metrics.violations > 0

    def test_congest_violation_strict_raises(self):
        g = path_graph(2)
        net = SynchronousNetwork(g, model=CONGEST, seed=0, strict=True)
        with pytest.raises(BandwidthViolation):
            net.run(lambda n: BigTalker(), max_rounds=3)

    def test_local_model_allows_big_messages(self):
        g = path_graph(2)
        net = SynchronousNetwork(g, model=LOCAL, seed=0)
        net.run(lambda n: BigTalker(), max_rounds=3)
        assert net.metrics.violations == 0


class TestDeterminism:
    def test_same_seed_same_outputs(self):
        class RandomReporter(NodeProgram):
            def on_round(self, ctx):
                ctx.halt(ctx.rng.random())

        g = path_graph(4)
        a = SynchronousNetwork(g, seed=5).run(
            lambda n: RandomReporter(), max_rounds=2
        )
        b = SynchronousNetwork(g, seed=5).run(
            lambda n: RandomReporter(), max_rounds=2
        )
        assert a.outputs == b.outputs

    def test_repeat_protocols_get_fresh_randomness(self):
        class RandomReporter(NodeProgram):
            def on_round(self, ctx):
                ctx.halt(ctx.rng.random())

        g = path_graph(4)
        net = SynchronousNetwork(g, seed=5)
        first = net.run(lambda n: RandomReporter(), max_rounds=2)
        second = net.run(lambda n: RandomReporter(), max_rounds=2)
        assert first.outputs != second.outputs

    def test_invalid_model_rejected(self):
        with pytest.raises(ValueError):
            SynchronousNetwork(path_graph(2), model="WEIRD")
