"""Bounded LRU result cache for the solver service.

Results are keyed by the submitting spec's identity — the
budget-agnostic instance fingerprint plus the algorithm name, round
budget and option set — so two clients asking for the same
deterministic workload share one solve.  The cache is a plain
``OrderedDict`` under a lock (the service's HTTP handlers and worker
threads both touch it), bounded with least-recently-used eviction, and
counts hits/misses/evictions for ``GET /stats``.
"""

from __future__ import annotations

from collections import OrderedDict
from threading import Lock
from typing import Any, Dict, Optional


class ResultCache:
    """Thread-safe LRU mapping of cache key → terminal result record."""

    def __init__(self, maxsize: int = 128):
        if maxsize < 0:
            raise ValueError(f"cache maxsize must be >= 0, got {maxsize}")
        self.maxsize = maxsize
        self._data: "OrderedDict[str, Any]" = OrderedDict()
        self._lock = Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key: str) -> Optional[Any]:
        """The cached record for ``key`` (refreshed as most recent), or
        ``None`` — counting the lookup either way."""

        with self._lock:
            if key in self._data:
                self._data.move_to_end(key)
                self.hits += 1
                return self._data[key]
            self.misses += 1
            return None

    def put(self, key: str, value: Any) -> None:
        """Insert/refresh ``key``, evicting the LRU entry when full."""

        if self.maxsize == 0:
            return
        with self._lock:
            if key in self._data:
                self._data.move_to_end(key)
            self._data[key] = value
            while len(self._data) > self.maxsize:
                self._data.popitem(last=False)
                self.evictions += 1

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._data

    def hit_rate(self) -> float:
        """Hits over lookups (0.0 before the first lookup)."""

        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0

    def stats(self) -> Dict[str, Any]:
        """The counter snapshot the ``/stats`` endpoint publishes."""

        with self._lock:
            size = len(self._data)
        return {
            "size": size,
            "maxsize": self.maxsize,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": self.hit_rate(),
        }


__all__ = ["ResultCache"]
