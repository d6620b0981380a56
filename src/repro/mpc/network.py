"""The MPC runtime: machines, shuffle, and the sublinearity check.

:class:`MPCNetwork` partitions the input graph across ``m`` machines
with ``S = O(n^δ)`` budgets and routes every inter-machine message
through :meth:`MPCNetwork.exchange` — the shuffle step that ends each
round.  The shuffle

1. splits the round's messages into local (same machine, free) and
   remote traffic,
2. lets the :class:`~repro.mpc.sparsify.AdaptiveSparsifier` thin
   droppable/redundant remote messages when the peak-hold estimator
   projects a machine at or above its guard line,
3. enforces the hard MPC budget — every machine's cross-machine
   ``sent + received`` message count must stay ``<= capacity`` where
   ``capacity = ceil(capacity_factor * n^δ)`` — raising
   :class:`~repro.errors.MPCCapacityError` otherwise,
4. charges each machine's :class:`~repro.mpc.ledger.MachineLedger`
   (bits at send time, mirroring the CONGEST simulator's accounting,
   so machines-per-node runs sum to ``NetworkMetrics.bits``), and
5. delivers the surviving messages as per-node inboxes for the next
   round.

A :class:`_FleetNetwork` runs node programs through the simulator's
round loop with this shuffle as its engine's delivery step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Hashable, Iterable, List, Optional, Tuple

import networkx as nx

from ..congest.message import payload_bits
from ..congest.network import SynchronousNetwork, _ObjectEngine
from ..errors import MPCCapacityError
from .ledger import aggregate_ledgers
from .machine import Machine, build_machines
from .partition import default_topology, partition_nodes
from .sparsify import AdaptiveSparsifier, PeakHoldEstimator


@dataclass
class MPCMessage:
    """One routed message.

    ``weight`` and ``droppable`` feed the sparsifier: only messages the
    protocol marked droppable (outcome-neutral by construction) may be
    dropped, lightest first.  ``group`` marks redundancy — of all
    messages sharing a group key, only the heaviest must arrive.
    """

    src: Hashable
    dst: Hashable
    payload: Tuple
    weight: float = 0.0
    droppable: bool = False
    group: Optional[Tuple] = field(default=None)


class MPCNetwork:
    """A fleet of sublinear-memory machines over one input graph."""

    def __init__(self, graph, machines: Optional[int] = None,
                 delta: Optional[float] = None, seed: int = 0,
                 capacity_factor: float = 8.0, sparsify: bool = True,
                 guard: float = 0.8):
        self.graph = graph
        self.seed = seed
        n = graph.number_of_nodes()
        self.machines, self.delta = default_topology(n, machines, delta)
        self.capacity = max(
            1, math.ceil(capacity_factor * max(2, n) ** self.delta)
        )
        self.capacity_factor = capacity_factor
        self.assignment = partition_nodes(graph.nodes, self.machines)
        self.fleet: List[Machine] = build_machines(
            graph, self.assignment, self.machines
        )
        self.estimator = PeakHoldEstimator(self.machines)
        self.sparsifier = (
            AdaptiveSparsifier(self.capacity, self.estimator, guard=guard)
            if sparsify else None
        )
        self.round = 0

    # -- routing -------------------------------------------------------
    def machine_of(self, node: Hashable) -> int:
        return self.assignment[node]

    def exchange(self, messages: Iterable[MPCMessage]
                 ) -> Dict[Hashable, Dict[Hashable, Tuple]]:
        """Run one shuffle step; returns next-round inboxes.

        The inbox of node ``v`` maps sender -> payload (one payload per
        sender per round, overwrite semantics, like the object
        simulator's outbox).
        """

        round_index = self.round
        local: List[MPCMessage] = []
        remote: List[MPCMessage] = []
        for msg in messages:
            if self.assignment[msg.src] == self.assignment[msg.dst]:
                local.append(msg)
            else:
                remote.append(msg)

        planned: Dict[int, int] = {m: 0 for m in range(self.machines)}
        for msg in remote:
            planned[self.assignment[msg.src]] += 1
            planned[self.assignment[msg.dst]] += 1

        dropped_by_machine = [0] * self.machines
        if self.sparsifier is not None and remote:
            if any(load > self.capacity for load in planned.values()):
                self.sparsifier.stats.would_violate_without = True
            kept = self.sparsifier.thin_round(
                round_index, remote, planned, self.machine_of
            )
            if len(kept) < len(remote):
                survivors = {id(msg) for msg in kept}
                for msg in remote:
                    if id(msg) not in survivors:
                        dropped_by_machine[self.assignment[msg.src]] += 1
            remote = kept

        for machine in sorted(planned):
            if planned[machine] > self.capacity:
                raise MPCCapacityError(
                    machine, round_index, planned[machine], self.capacity
                )

        # -- charge ledgers and deliver --------------------------------
        sent = [0] * self.machines
        sent_bits = [0] * self.machines
        received = [0] * self.machines
        received_bits = [0] * self.machines
        local_count = [0] * self.machines
        buffered_words = [0] * self.machines
        inboxes: Dict[Hashable, Dict[Hashable, Tuple]] = {}

        for msg in remote:
            src_m = self.assignment[msg.src]
            dst_m = self.assignment[msg.dst]
            bits = payload_bits(msg.payload)
            sent[src_m] += 1
            sent_bits[src_m] += bits
            received[dst_m] += 1
            received_bits[dst_m] += bits
            buffered_words[dst_m] += len(msg.payload)
            inboxes.setdefault(msg.dst, {})[msg.src] = msg.payload
        for msg in local:
            machine = self.assignment[msg.src]
            local_count[machine] += 1
            buffered_words[machine] += len(msg.payload)
            inboxes.setdefault(msg.dst, {})[msg.src] = msg.payload

        for machine in self.fleet:
            index = machine.index
            load = sent[index] + received[index]
            machine.ledger.charge_round(
                round_index,
                sent=sent[index], sent_bits=sent_bits[index],
                received=received[index],
                received_bits=received_bits[index],
                local=local_count[index],
                memory_words=machine.round_memory_words(
                    buffered_words[index]
                ),
                dropped=dropped_by_machine[index],
            )
            self.estimator.observe(index, load)

        self.round += 1
        return inboxes

    # -- reporting -----------------------------------------------------
    def summary(self) -> Dict[str, object]:
        """JSON-safe run summary for reports and experiment rows.

        ``sublinear_ok`` is true by construction for any run that got
        here — a violation raises :class:`MPCCapacityError` inside the
        shuffle instead.
        """

        totals = aggregate_ledgers([m.ledger for m in self.fleet])
        summary: Dict[str, object] = {
            "machines": self.machines,
            "delta": self.delta,
            "capacity": self.capacity,
            "rounds": self.round,
            "sublinear_ok": totals["max_load"] <= self.capacity,
        }
        summary.update(totals)
        summary["peak_loads"] = [
            machine.ledger.peak_load for machine in self.fleet
        ]
        summary["peak_memory_words"] = [
            machine.ledger.peak_memory_words for machine in self.fleet
        ]
        if self.sparsifier is not None:
            summary["sparsify"] = self.sparsifier.stats.as_dict()
        else:
            summary["sparsify"] = None
        return summary

    def ledgers(self) -> List[Dict[str, object]]:
        return [machine.ledger.as_dict() for machine in self.fleet]


class _ShuffledEngine(_ObjectEngine):
    """The object engine with the fleet's shuffle as its delivery step."""

    def step(self, round_index: int) -> None:
        super().step(round_index)
        inboxes = self.net.fleet.exchange(self.mpc_messages())
        self.in_flight = [
            (src, dst, payload)
            for dst, inbox in inboxes.items()
            for src, payload in inbox.items()
        ]

    def mpc_messages(self) -> Iterable[MPCMessage]:
        """This round's ``in_flight`` mail for the shuffle, droppable
        where the recipient has halted (it is never delivered)."""

        contexts = self._contexts
        return (
            MPCMessage(src, dst, payload, droppable=contexts[dst]._halted)
            for src, dst, payload in self.in_flight
        )


class _FleetNetwork(SynchronousNetwork):
    """A simulator over ``graph`` whose rounds end in a shuffle of
    ``fleet``."""

    ENGINE = _ShuffledEngine

    def __init__(self, graph: nx.Graph, fleet: MPCNetwork, seed: int):
        super().__init__(graph, seed=seed)
        self.fleet = fleet


__all__ = ["MPCMessage", "MPCNetwork"]
