"""One MPC machine: a node block, its adjacency slice, its ledger.

A :class:`Machine` owns the contiguous block of repr-sorted nodes the
partitioner assigned it, stores only the adjacency incident to that
block (the ``O(n^δ)``-word slice of the input), and carries the
:class:`~repro.mpc.ledger.MachineLedger` the shuffle charges every
round.  Memory is accounted in *words*: one per resident node, one per
stored adjacency entry, one per word of buffered inbound payload.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Tuple

from .ledger import MachineLedger


@dataclass
class Machine:
    """A single machine's resident state."""

    index: int
    nodes: Tuple[Hashable, ...]
    #: node -> repr-sorted tuple of its neighbors (full incident
    #: adjacency — each cross-partition edge is stored on both sides,
    #: like a distributed edge list).
    adjacency: Dict[Hashable, Tuple[Hashable, ...]] = field(
        default_factory=dict
    )
    ledger: MachineLedger = field(init=False)

    def __post_init__(self) -> None:
        self.ledger = MachineLedger(machine=self.index)
        self._base_words = len(self.nodes) + sum(
            len(neigh) for neigh in self.adjacency.values()
        )

    def base_memory_words(self) -> int:
        """Resident words before any round buffers: one word per node
        plus one per adjacency entry, fixed at construction."""

        return self._base_words

    def round_memory_words(self, buffered_payload_words: int) -> int:
        """Words resident during a round: base + inbound buffers."""

        return self.base_memory_words() + buffered_payload_words


def build_machines(graph, assignment: Dict[Hashable, int],
                   machines: int) -> List[Machine]:
    """Materialize the machine fleet for a partitioned graph."""

    blocks: List[List[Hashable]] = [[] for _ in range(machines)]
    for node in sorted(graph.nodes, key=repr):
        blocks[assignment[node]].append(node)
    fleet = []
    for index, block in enumerate(blocks):
        adjacency = {
            node: tuple(sorted(graph.neighbors(node), key=repr))
            for node in block
        }
        fleet.append(Machine(index=index, nodes=tuple(block),
                             adjacency=adjacency))
    return fleet


__all__ = ["Machine", "build_machines"]
