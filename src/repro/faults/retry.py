"""Bounded retry with exponential backoff and deterministic jitter.

The :class:`RetryPolicy` is the solver service's retry knob
(``JobManager(retry=...)``); ``solve_many`` runs each task once.
Only failures classified *transient*
(:class:`~repro.errors.TransientFault` — what the fault plane injects
at ``worker.transient``, and what user code may raise to opt into
retries) are retried; everything else fails fast, exactly as before.

Jitter is **deterministic**: the per-attempt delay is perturbed by a
``stable_rng(seed, key, attempt)`` draw, so two runs of the same plan
back off identically — real de-correlation of retry storms across
*different* keys (every job id jitters differently), zero run-to-run
noise within one key.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import TransientFault
from ..utils import stable_rng

#: Exceptions a retry policy treats as transient.
RETRYABLE = (TransientFault,)


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff: ``max_attempts`` tries in total,
    ``base_delay_s * factor**(attempt-1)`` between them (capped at
    ``max_delay_s``) plus up to ``jitter`` of that delay again,
    deterministically keyed.
    """

    max_attempts: int = 3
    base_delay_s: float = 0.05
    factor: float = 2.0
    max_delay_s: float = 2.0
    jitter: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError(
                f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.base_delay_s < 0 or self.max_delay_s < 0:
            raise ValueError("backoff delays must be non-negative")
        if self.jitter < 0:
            raise ValueError("jitter must be non-negative")

    def retryable(self, exc: BaseException) -> bool:
        """Whether ``exc`` is worth another attempt."""

        return isinstance(exc, RETRYABLE)

    def delay(self, attempt: int, key: str = "") -> float:
        """Seconds to sleep after failed attempt number ``attempt``
        (1-based), deterministically jittered by ``key``."""

        base = min(self.max_delay_s,
                   self.base_delay_s * self.factor ** (attempt - 1))
        spread = stable_rng(self.seed, "retry", key, attempt).random()
        return base * (1.0 + self.jitter * spread)


#: The service's default: three attempts, fast first backoff.
DEFAULT_RETRY = RetryPolicy()


__all__ = ["DEFAULT_RETRY", "RETRYABLE", "RetryPolicy"]
