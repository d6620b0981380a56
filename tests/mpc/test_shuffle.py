"""The shuffle's contract: what ``MPCNetwork.exchange`` delivers and
what it charges.

On ``complete_graph(6)`` over two machines, nodes 0-2 live on machine
0 and nodes 3-5 on machine 1 (contiguous blocks of the repr order).
"""

from __future__ import annotations

import pytest

from repro.congest import NodeProgram, message
from repro.congest.message import payload_bits
from repro.errors import MPCCapacityError
from repro.graphs import complete_graph, path_graph
from repro.mpc import MPCNetwork
from repro.mpc.network import _FleetNetwork


def unmarked(msg):
    raise AssertionError(f"no machine runs hot, yet {msg!r} was marked")


def two_machines(**options):
    network = MPCNetwork(complete_graph(6), machines=2, **options)
    assert [network.machine_of(v) for v in range(6)] == [0, 0, 0, 1, 1, 1]
    return network


class TestDelivery:
    def test_remote_mail_then_local_mail_each_in_send_order(self):
        network = two_machines(capacity_factor=1e9)
        mail = [(3, 0, ("a",)), (1, 0, ("b",)), (4, 0, ("c", 1)),
                (0, 5, ("d",)), (2, 0, ("e",)), (5, 4, ("f",))]
        delivered = network.exchange(mail, unmarked)
        assert delivered == [mail[0], mail[2], mail[3],
                             mail[1], mail[4], mail[5]]

    def test_each_inbox_lists_remote_senders_before_local_ones(self):
        class Record(NodeProgram):
            def on_round(self, ctx):
                if ctx.round == 0:
                    ctx.broadcast("hi")
                else:
                    ctx.halt(list(ctx.inbox))

        graph = complete_graph(6)
        fleet = two_machines(capacity_factor=1e9)
        result = _FleetNetwork(graph, fleet, seed=0).run(
            lambda v: Record())
        assert result.outputs[0] == [3, 4, 5, 1, 2]
        assert result.outputs[4] == [0, 1, 2, 3, 5]

    def test_local_mail_costs_no_load(self):
        network = two_machines(capacity_factor=1e9)
        local = [(0, 1, ("x",)), (4, 3, ("y", 7)), (2, 0, ("z",))]
        assert network.exchange(local, unmarked) == local
        summary = network.summary()
        assert summary["max_load"] == 0
        assert summary["messages_sent"] == 0
        assert summary["bits_sent"] == 0
        assert [led.local_messages for led in network.ledgers] == [2, 1]


class Greet(NodeProgram):
    """Broadcasts once from ``on_start``; halts with its inbox size."""

    def on_start(self, ctx):
        ctx.broadcast("hi")

    def on_round(self, ctx):
        ctx.halt(len(ctx.inbox))


class TestStartMail:
    def test_start_mail_is_held_to_the_capacity(self):
        fleet = two_machines(capacity_factor=1e-9, sparsify=False)
        assert fleet.capacity == 1
        with pytest.raises(MPCCapacityError):
            _FleetNetwork(complete_graph(6), fleet, seed=0).run(
                lambda v: Greet())

    def test_start_mail_is_charged(self):
        fleet = two_machines(capacity_factor=1e9)
        result = _FleetNetwork(complete_graph(6), fleet, seed=0).run(
            lambda v: Greet())
        assert result.outputs == {v: 5 for v in range(6)}
        summary = fleet.summary()
        assert summary["messages_sent"] == 18
        assert summary["bits_sent"] == summary["bits_received"] > 0
        assert [led.local_messages for led in fleet.ledgers] == [6, 6]


class TestCharging:
    MAIL = [(0, 3, ("joined",)), (1, 4, ("bid", 1 << 20, True)),
            (5, 2, ("w", 2.5)), (4, 1, ("joined",)), (2, 1, ("local",))]

    def test_charged_bits_equal_payload_bits(self):
        network = two_machines(capacity_factor=1e9)
        network.exchange(self.MAIL, unmarked)
        remote = self.MAIL[:4]
        for index, ledger in enumerate(network.ledgers):
            out = [p for s, _d, p in remote
                   if network.machine_of(s) == index]
            into = [p for _s, d, p in remote
                    if network.machine_of(d) == index]
            assert ledger.messages_sent == len(out)
            assert ledger.bits_sent == sum(map(payload_bits, out))
            assert ledger.bits_received == sum(map(payload_bits, into))
            assert ledger.peak_load == len(out) + len(into)

    def test_a_memoised_payload_is_never_priced_again(self, monkeypatch):
        priced = []

        def counting(payload):
            priced.append(payload)
            return payload_bits(payload)

        message.BITS_MEMO.clear()
        monkeypatch.setattr(message, "payload_bits", counting)
        network = two_machines(capacity_factor=1e9)
        network.exchange(self.MAIL, unmarked)
        assert sorted(priced) == sorted({p for _s, _d, p in self.MAIL[:4]})
        priced.clear()
        network.exchange(self.MAIL, unmarked)
        assert priced == []

    def test_dropped_mail_is_absent_and_charged_to_its_sender(self):
        # capacity 3, so a planned load of 2 runs hot
        network = two_machines(capacity_factor=1.0)
        assert network.capacity == 3
        weight = {0: 1.0, 5: 2.0, 1: 3.0}
        marked = []

        def mark(msg):
            marked.append(msg)
            return weight[msg[0]], True, None

        mail = [(0, 3, ("x",)), (1, 4, ("x",)), (5, 2, ("x",)),
                (1, 2, ("local",))]
        delivered = network.exchange(mail, mark)
        assert marked == mail[:3]
        assert delivered == [mail[1], mail[3]]
        assert [led.dropped_messages for led in network.ledgers] == [1, 1]
        assert [led.messages_sent for led in network.ledgers] == [1, 0]
        assert network.summary()["sparsify"]["dropped_messages"] == 2


class TestBaseWords:
    def test_base_words_count_hosted_nodes_and_adjacency_entries(self):
        graph = path_graph(6)
        graph.add_edge(2, 2)  # a self-loop is one adjacency entry
        network = MPCNetwork(graph, machines=2)
        hosted = [[v for v in graph if network.machine_of(v) == m]
                  for m in range(2)]
        assert sorted(hosted[0] + hosted[1]) == list(graph)
        assert network.base_words == [
            sum(1 + len(graph.adj[v]) for v in block) for block in hosted
        ]
        assert network.base_words[0] == 9
        assert network.base_words[0] != sum(1 + graph.degree(v)
                                            for v in hosted[0])

    @pytest.mark.parametrize("payload", [("x",), ("x", 1, 2)])
    def test_resident_memory_adds_the_delivered_payload_words(self,
                                                              payload):
        network = two_machines(capacity_factor=1e9)
        network.exchange([(0, 3, payload), (4, 5, payload)], unmarked)
        words = [led.peak_memory_words for led in network.ledgers]
        assert words == [network.base_words[0],
                         network.base_words[1] + 2 * len(payload)]
