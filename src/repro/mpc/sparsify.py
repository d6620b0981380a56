"""Adaptive sparsification for the MPC shuffle.

Two cooperating pieces:

* :class:`PeakHoldEstimator` — a per-machine load estimator that holds
  the highest round load seen so far (a "peak hold" meter).  The
  projected load of the next round is ``max(planned, held_peak)``:
  bursty protocols are judged by their worst round, so sparsification
  engages *before* a machine first exceeds its budget rather than one
  round after.
* :class:`AdaptiveSparsifier` — when a machine's projected traffic
  reaches :data:`GUARD` of its capacity it drops droppable messages
  (lowest weight first) addressed to or from that machine until the
  projection is back under the guard line, and thins redundant message
  groups (``group`` key: only the heaviest member of a group must
  survive).

A message is only ever dropped when the producing protocol marked it
``droppable=True`` — i.e. outcome-neutral by construction — so
sparsification trades ledger load, never correctness.  The stats object
records trigger counts and whether any round *would have* violated the
hard capacity check without sparsification (the acceptance criterion
for the dense ``mpc_scaling`` configurations).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, List

#: The fraction of capacity at which sparsification engages.
GUARD = 0.8


@dataclass
class SparsifyStats:
    """Counters surfaced in reports and the ``mpc_scaling`` rows."""

    triggers: int = 0
    dropped_messages: int = 0
    would_violate_without: bool = False
    rounds_engaged: List[int] = field(default_factory=list)

    def as_dict(self) -> Dict[str, object]:
        return {
            "triggers": self.triggers,
            "dropped_messages": self.dropped_messages,
            "would_violate_without": self.would_violate_without,
            "rounds_engaged": list(self.rounds_engaged),
        }


class PeakHoldEstimator:
    """Per-machine peak-hold load estimator.

    ``project(machine, planned)`` returns the load the sparsifier
    should plan against; ``observe(machine, actual)`` latches the
    realized load after the round's shuffle so the hold ratchets up
    but never decays.
    """

    def __init__(self, machines: int):
        self._peaks = [0] * machines

    def project(self, machine: int, planned: int) -> int:
        return max(planned, self._peaks[machine])

    def observe(self, machine: int, actual: int) -> None:
        if actual > self._peaks[machine]:
            self._peaks[machine] = actual


class AdaptiveSparsifier:
    """Drops droppable low-weight traffic when a machine runs hot.

    A machine projecting at or above ``GUARD * capacity`` is hot.
    Dropping order is deterministic — ascending ``(weight, repr(src),
    repr(dst))`` — so runs are byte-reproducible.
    """

    def __init__(self, capacity: int, estimator: PeakHoldEstimator):
        self.capacity = capacity
        self.estimator = estimator
        self.stats = SparsifyStats()
        self._threshold = max(1, int(GUARD * capacity))

    def thin_round(self, round_index: int, remote: list,
                   planned: List[int], assignment: Dict[Hashable, int],
                   mark) -> list:
        """Filter one round's remote messages.

        ``remote`` holds the round's cross-machine ``(src, dst,
        payload)`` triples, ``planned`` each machine's planned load
        (sent + received) and ``assignment`` each node's machine.
        ``mark(msg)`` gives a message's ``(weight, droppable, group)``:
        only a message its protocol marked ``droppable`` (outcome-
        neutral) may be dropped, and of the messages sharing a
        ``group`` key (``None`` for none) only the heaviest must
        arrive.  ``mark`` is called only in a round where some machine
        projects hot.  Returns the surviving messages; mutates
        ``planned`` in place to reflect the drops and updates
        :attr:`stats`.
        """

        hot = {m for m, load in enumerate(planned)
               if self.estimator.project(m, load) >= self._threshold}
        if not hot:
            return remote

        self.stats.triggers += 1
        self.stats.rounds_engaged.append(round_index)

        def order(entry):
            msg, weight = entry[0], entry[1]
            return (weight, repr(msg[0]), repr(msg[1]))

        # Redundant groups first: keep only the heaviest member of each
        # group whose endpoints touch a hot machine.  An entry is
        # ``(msg, weight, droppable, group)``.
        survivors = []
        keepers = set()
        grouped: Dict[object, list] = {}
        for msg in remote:
            entry = (msg, *mark(msg))
            group = entry[3]
            if group is None or (assignment[msg[0]] not in hot
                                 and assignment[msg[1]] not in hot):
                survivors.append(entry)
            else:
                grouped.setdefault(group, []).append(entry)
        for key in sorted(grouped, key=repr):
            members = sorted(grouped[key], key=order)
            keeper = members[-1]
            keepers.add(id(keeper[0]))
            survivors.append(keeper)
            for entry in members[:-1]:
                self._account_drop(entry[0], planned, assignment)

        # Then plain droppables, lightest first, while a touched
        # machine still projects hot.
        droppable = sorted(
            (entry for entry in survivors
             if entry[2] and id(entry[0]) not in keepers),
            key=order,
        )
        dropped = set()
        for entry in droppable:
            msg = entry[0]
            if (self._projects_hot(assignment[msg[0]], planned)
                    or self._projects_hot(assignment[msg[1]], planned)):
                dropped.add(id(msg))
                self._account_drop(msg, planned, assignment)
        return [entry[0] for entry in survivors
                if id(entry[0]) not in dropped]

    def _projects_hot(self, machine: int, planned: List[int]) -> bool:
        load = planned[machine]
        return self.estimator.project(machine, load) >= self._threshold

    def _account_drop(self, msg, planned, assignment) -> None:
        self.stats.dropped_messages += 1
        planned[assignment[msg[0]]] -= 1
        planned[assignment[msg[1]]] -= 1


__all__ = ["AdaptiveSparsifier", "PeakHoldEstimator", "SparsifyStats"]
