"""The MPC runtime: machines, shuffle, and the sublinearity check.

:class:`MPCNetwork` partitions the input graph across ``m`` machines
with ``S = O(n^δ)`` budgets and routes every inter-machine message
through :meth:`MPCNetwork.exchange` — the shuffle step that ends each
round.  The shuffle takes the round's ``(src, dst, payload)`` mail as
the simulator's engine collected it and

1. splits it into local (same machine, free) and remote traffic,
2. lets the :class:`~repro.mpc.sparsify.AdaptiveSparsifier` thin
   droppable/redundant remote messages when the peak-hold estimator
   projects a machine at or above its guard line (the engine's
   ``mark`` says which messages may go),
3. enforces the hard MPC budget — every machine's cross-machine
   ``sent + received`` message count must stay ``<= capacity`` where
   ``capacity = ceil(capacity_factor * n^δ)`` — raising
   :class:`~repro.errors.MPCCapacityError` otherwise,
4. charges each machine's :class:`~repro.mpc.ledger.MachineLedger`
   (bits at send time, priced like the CONGEST simulator's, so
   machines-per-node runs sum to ``NetworkMetrics.bits``), and
5. returns the surviving mail for the next round: kept remote mail,
   then local mail.

A :class:`_FleetNetwork` runs node programs through the simulator's
round loop with this shuffle as its engine's delivery step.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Hashable, List, Optional, Tuple

import networkx as nx

from ..congest.message import BITS_MEMO, memo_bits
from ..congest.network import SynchronousNetwork, _ObjectEngine
from ..errors import MPCCapacityError
from .ledger import MachineLedger, aggregate_ledgers
from .partition import default_topology, partition_nodes
from .sparsify import AdaptiveSparsifier, PeakHoldEstimator


class MPCNetwork:
    """A fleet of sublinear-memory machines over one input graph.

    Memory is accounted in words: one per hosted node, one per entry of
    its adjacency (a cross-machine edge is stored on both sides, like a
    distributed edge list), and one per word of payload buffered for
    delivery.
    """

    def __init__(self, graph, machines: Optional[int] = None,
                 delta: Optional[float] = None, seed: int = 0,
                 capacity_factor: float = 8.0, sparsify: bool = True):
        self.graph = graph
        self.seed = seed
        n = graph.number_of_nodes()
        self.machines, self.delta = default_topology(n, machines, delta)
        self.capacity = max(
            1, math.ceil(capacity_factor * max(2, n) ** self.delta)
        )
        self.capacity_factor = capacity_factor
        self.assignment = partition_nodes(graph.nodes, self.machines)
        #: Each machine's resident words before any round buffers.
        self.base_words = [0] * self.machines
        adjacency = graph.adj
        for node, machine in self.assignment.items():
            self.base_words[machine] += 1 + len(adjacency[node])
        self.ledgers = [MachineLedger(machine=index)
                        for index in range(self.machines)]
        self.estimator = PeakHoldEstimator(self.machines)
        self.sparsifier = (
            AdaptiveSparsifier(self.capacity, self.estimator)
            if sparsify else None
        )
        self.round = 0

    # -- routing -------------------------------------------------------
    def machine_of(self, node: Hashable) -> int:
        return self.assignment[node]

    def exchange(self, mail: List[tuple],
                 mark: Callable[[tuple], tuple]) -> List[tuple]:
        """Run one shuffle step over a round's ``(src, dst, payload)``
        mail, in send order; returns the mail to deliver next round.

        That is the kept remote mail, then the local mail, each in
        send order (a thinned group's keeper follows its round's other
        remote mail), so every recipient reads its remote senders
        first.  ``mark`` gives a remote message's ``(weight,
        droppable, group)`` to the sparsifier, which reads it only in
        a round where some machine projects hot.
        """

        round_index = self.round
        assignment = self.assignment
        machines = self.machines
        local: List[tuple] = []
        remote: List[tuple] = []
        planned = [0] * machines
        local_count = [0] * machines
        buffered_words = [0] * machines
        for msg in mail:
            src_m = assignment[msg[0]]
            dst_m = assignment[msg[1]]
            if src_m == dst_m:
                local.append(msg)
                local_count[src_m] += 1
                buffered_words[src_m] += len(msg[2])
            else:
                remote.append(msg)
                planned[src_m] += 1
                planned[dst_m] += 1

        dropped = [0] * machines
        if self.sparsifier is not None and remote:
            if any(load > self.capacity for load in planned):
                self.sparsifier.stats.would_violate_without = True
            kept = self.sparsifier.thin_round(
                round_index, remote, planned, assignment, mark
            )
            if len(kept) < len(remote):
                survivors = set(map(id, kept))
                for msg in remote:
                    if id(msg) not in survivors:
                        dropped[assignment[msg[0]]] += 1
            remote = kept

        for machine, load in enumerate(planned):
            if load > self.capacity:
                raise MPCCapacityError(
                    machine, round_index, load, self.capacity
                )

        # -- charge ledgers --------------------------------------------
        sent = [0] * machines
        sent_bits = [0] * machines
        received = [0] * machines
        received_bits = [0] * machines
        known = BITS_MEMO.get
        for src, dst, payload in remote:
            src_m = assignment[src]
            dst_m = assignment[dst]
            bits = known(payload)
            if bits is None:
                bits = memo_bits(payload)
            sent[src_m] += 1
            sent_bits[src_m] += bits
            received[dst_m] += 1
            received_bits[dst_m] += bits
            buffered_words[dst_m] += len(payload)

        for index, ledger in enumerate(self.ledgers):
            ledger.charge_round(
                sent=sent[index], sent_bits=sent_bits[index],
                received=received[index],
                received_bits=received_bits[index],
                local=local_count[index],
                memory_words=self.base_words[index] + buffered_words[index],
                dropped=dropped[index],
            )
            self.estimator.observe(index, sent[index] + received[index])

        self.round += 1
        return remote + local

    # -- reporting -----------------------------------------------------
    def summary(self) -> Dict[str, object]:
        """JSON-safe run summary for reports and experiment rows.

        ``sublinear_ok`` is true by construction for any run that got
        here — a violation raises :class:`MPCCapacityError` inside the
        shuffle instead.
        """

        totals = aggregate_ledgers(self.ledgers)
        summary: Dict[str, object] = {
            "machines": self.machines,
            "delta": self.delta,
            "capacity": self.capacity,
            "rounds": self.round,
            "sublinear_ok": totals["max_load"] <= self.capacity,
        }
        summary.update(totals)
        summary["peak_loads"] = [led.peak_load for led in self.ledgers]
        summary["peak_memory_words"] = [
            led.peak_memory_words for led in self.ledgers
        ]
        if self.sparsifier is not None:
            summary["sparsify"] = self.sparsifier.stats.as_dict()
        else:
            summary["sparsify"] = None
        return summary


class _ShuffledEngine(_ObjectEngine):
    """The object engine with the fleet's shuffle as its delivery step;
    mail sent from ``on_start`` is shuffled before the first round."""

    def start(self) -> None:
        super().start()
        if self.in_flight:
            self.in_flight = self.net.fleet.exchange(self.in_flight,
                                                     self.mark)

    def step(self, round_index: int) -> None:
        super().step(round_index)
        self.in_flight = self.net.fleet.exchange(self.in_flight, self.mark)

    def mark(self, msg: tuple) -> Tuple[float, bool, Optional[tuple]]:
        """A remote message's ``(weight, droppable, group)``: droppable
        where the recipient has halted (it is never delivered)."""

        return 0.0, self._contexts[msg[1]]._halted, None


class _FleetNetwork(SynchronousNetwork):
    """A simulator over ``graph`` whose rounds end in a shuffle of
    ``fleet``."""

    ENGINE = _ShuffledEngine

    def __init__(self, graph: nx.Graph, fleet: MPCNetwork, seed: int):
        super().__init__(graph, seed=seed)
        self.fleet = fleet


__all__ = ["MPCNetwork"]
