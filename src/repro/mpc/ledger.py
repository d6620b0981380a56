"""Per-machine accounting for the MPC runtime.

Each machine owns one :class:`MachineLedger`.  The shuffle charges it
once per round with the cross-machine traffic the machine moved (sent
and received messages/bits, counted at *send* time exactly like the
CONGEST simulator's ``NetworkMetrics.bits``, so the two accountings are
directly comparable) plus the resident memory footprint in words.  The
counters are cumulative over a run, plus the peak load and resident
memory of any one round; :meth:`~repro.mpc.MPCNetwork.summary` folds
them into the fleet totals the reports and the ``mpc_scaling``
experiment read.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence


@dataclass
class MachineLedger:
    """Communication and memory accounting for one machine.

    ``load`` of a round is the machine's cross-machine messages sent
    plus received in that round — the quantity the runtime's hard
    ``load <= capacity`` sublinearity check is enforced on.  Local
    (same-machine) deliveries are free, as in the MPC model.
    """

    machine: int
    rounds: int = 0
    messages_sent: int = 0
    messages_received: int = 0
    bits_sent: int = 0
    bits_received: int = 0
    local_messages: int = 0
    peak_load: int = 0
    peak_memory_words: int = 0
    dropped_messages: int = 0

    def charge_round(self, sent: int, sent_bits: int,
                     received: int, received_bits: int, local: int,
                     memory_words: int, dropped: int = 0) -> None:
        """Record one round of traffic and the resident memory."""

        load = sent + received
        self.rounds += 1
        self.messages_sent += sent
        self.messages_received += received
        self.bits_sent += sent_bits
        self.bits_received += received_bits
        self.local_messages += local
        self.dropped_messages += dropped
        if load > self.peak_load:
            self.peak_load = load
        if memory_words > self.peak_memory_words:
            self.peak_memory_words = memory_words


def aggregate_ledgers(ledgers: Sequence[MachineLedger]) -> Dict[str, int]:
    """Fleet-level totals over a set of machine ledgers.

    ``bits_sent``/``messages_sent`` sum to the CONGEST simulator's
    global counters on a machines-per-node run (every message is then
    cross-machine), which is the ledger-invariant the test suite pins.
    """

    return {
        "machines": len(ledgers),
        "rounds": max((led.rounds for led in ledgers), default=0),
        "messages_sent": sum(led.messages_sent for led in ledgers),
        "bits_sent": sum(led.bits_sent for led in ledgers),
        "bits_received": sum(led.bits_received for led in ledgers),
        "local_messages": sum(led.local_messages for led in ledgers),
        "max_load": max((led.peak_load for led in ledgers), default=0),
        "max_peak_memory": max(
            (led.peak_memory_words for led in ledgers), default=0
        ),
        "dropped_messages": sum(led.dropped_messages for led in ledgers),
    }
