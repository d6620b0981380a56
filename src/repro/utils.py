"""Small shared utilities: stable RNG derivation and integer math helpers."""

from __future__ import annotations

import _random
import hashlib
import math
import random
from typing import Iterable


def stable_rng(seed: int, *parts) -> random.Random:
    """Return a :class:`random.Random` derived deterministically from parts.

    Python's built-in ``hash`` is salted per process for strings, so we
    derive the stream from a SHA-256 digest instead.  The same
    ``(seed, *parts)`` always yields the same stream, across processes and
    platforms, which makes every simulation in this library reproducible.
    """

    key = "|".join([str(seed)] + [repr(p) for p in parts])
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    # Seed through the C base class, skipping random.Random.seed's
    # Python wrapper: for an int seed the state is identical to
    # random.Random(int_seed) (pinned by tests) and construction is
    # cheaper, which matters when a large run derives one stream per
    # node.
    rng = random.Random.__new__(random.Random)
    _random.Random.seed(rng, int.from_bytes(digest[:8], "big"))
    rng.gauss_next = None
    return rng


def drain(generator):
    """Consume a generator for its return value (``StopIteration.value``).

    The anytime execution layer is built on generators that yield
    per-phase snapshots and *return* the final result; every
    non-anytime entry point drains its generator twin through this one
    helper so the idiom lives in exactly one place.
    """

    while True:
        try:
            next(generator)
        except StopIteration as stop:
            return stop.value


def ilog2(x: int) -> int:
    """Return ``ceil(log2(x))`` for a positive integer, with ilog2(1) == 0."""

    if x <= 0:
        raise ValueError(f"ilog2 requires a positive integer, got {x}")
    return (x - 1).bit_length()


def log_star(x: float) -> int:
    """Return the iterated logarithm log* of ``x`` (base 2)."""

    if x <= 1:
        return 0
    count = 0
    while x > 1:
        x = math.log2(x)
        count += 1
    return count


def is_prime(n: int) -> bool:
    """Deterministic primality test, adequate for the small primes we need."""

    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    i = 3
    while i * i <= n:
        if n % i == 0:
            return False
        i += 2
    return True


def next_prime(n: int) -> int:
    """Return the smallest prime that is >= ``n``."""

    candidate = max(2, n)
    while not is_prime(candidate):
        candidate += 1
    return candidate


def mean(values: Iterable[float]) -> float:
    """Arithmetic mean of a non-empty iterable."""

    values = list(values)
    if not values:
        raise ValueError("mean() of empty sequence")
    return sum(values) / len(values)


def geometric_layers(weight: int) -> int:
    """Return the weight layer index used by Algorithm 2.

    Layer ``i`` holds nodes with ``2^(i-1) < w <= 2^i``; equivalently the
    layer of a positive integer weight ``w`` is ``ceil(log2(w))`` with
    weight 1 mapping to layer 0.
    """

    if weight <= 0:
        raise ValueError(f"weights must be positive, got {weight}")
    return ilog2(weight)
