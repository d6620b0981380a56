"""Round accounting for phase-composed algorithms.

Several of the paper's algorithms are compositions: Algorithm 2 interleaves
an MIS black box with O(1)-round bookkeeping; the Hopcroft–Karp framework
runs O(1/ε) phases each simulating a conflict-graph round in O(ℓ) base
rounds; Appendix B.3 groups Θ(1/ε²) CONGEST rounds to ship wide numbers.

A :class:`RoundLedger` lets a driver charge rounds to named phases exactly
the way the paper's analyses do, while message-level sub-protocols run on
the real simulator and contribute their measured rounds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict


@dataclass
class RoundLedger:
    """Accumulates rounds charged by a composed algorithm."""

    total: int = 0
    breakdown: Dict[str, int] = field(default_factory=dict)

    def charge(self, rounds: int, label: str) -> None:
        """Charge ``rounds`` synchronous rounds to phase ``label``."""

        if rounds < 0:
            raise ValueError(f"cannot charge negative rounds ({rounds})")
        self.total += rounds
        self.breakdown[label] = self.breakdown.get(label, 0) + rounds

    def as_dict(self) -> Dict[str, int]:
        return dict(self.breakdown, total=self.total)

    def state(self) -> dict:
        """The resume payload ``{"total", "breakdown"}`` (a copy)."""

        return {"total": self.total, "breakdown": dict(self.breakdown)}

    def restore(self, state: dict) -> None:
        """Overwrite this ledger with a :meth:`state` payload."""

        self.total = state["total"]
        self.breakdown = dict(state["breakdown"])
