"""Small shared utilities: stable RNG derivation and integer math helpers."""

from __future__ import annotations

import _random
import hashlib
import math
import random
from typing import Iterable


def stable_seed(seed: int, *parts) -> int:
    """The 64-bit integer seed :func:`stable_rng` derives from parts.

    Python's built-in ``hash`` is salted per process for strings, so we
    derive the seed from a SHA-256 digest instead.  The same
    ``(seed, *parts)`` always yields the same value, across processes
    and platforms.
    """

    if not parts:
        digest = hashlib.sha256(str(seed).encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "big")
    return int.from_bytes(stable_seed_words(seed, parts[:1], *parts[1:]),
                          "big")


def stable_seed_words(seed: int, heads: Iterable, *tail) -> bytes:
    """:func:`stable_seed` of ``(seed, head, *tail)`` for every ``head``
    in ``heads``, as consecutive big-endian 8-byte words (decode them
    all at once with ``numpy.frombuffer(words, ">u8")``).

    The key text ``"seed|repr(head)|repr(part)..."`` is built here
    only, and :func:`stable_seed` reads its one word from here too.
    Each key gets its own SHA-256; only the per-call overhead of
    building and decoding is shared.
    """

    prefix = str(seed) + "|"
    suffix = "".join(map("|{!r}".format, tail))
    sha256 = hashlib.sha256
    return b"".join([
        sha256(f"{prefix}{head!r}{suffix}".encode("utf-8")).digest()[:8]
        for head in heads
    ])


def stable_rng(seed: int, *parts) -> random.Random:
    """Return a :class:`random.Random` seeded with
    :func:`stable_seed` of the same parts, which makes every simulation
    in this library reproducible."""

    # Seed through the C base class, skipping random.Random.seed's
    # Python wrapper: for an int seed the state is identical to
    # random.Random(int_seed) (pinned by tests) and construction is
    # cheaper, which matters when a large run derives one stream per
    # node.
    rng = random.Random.__new__(random.Random)
    _random.Random.seed(rng, stable_seed(seed, *parts))
    rng.gauss_next = None
    return rng


def rng_state(rng: random.Random) -> list:
    """The JSON-safe resume payload of an RNG: ``[version, internals,
    gauss]`` (the ``getstate()`` triple with the internal tuple as a
    list).  Every resume payload encodes RNG state through this one
    helper pair."""

    version, internals, gauss = rng.getstate()
    return [version, list(internals), gauss]


def restore_rng(rng: random.Random, state) -> None:
    """Restore an :func:`rng_state` payload into ``rng``.  ``None``
    keeps the stream ``rng`` already has (the fresh stream it was
    built with)."""

    if state is not None:
        version, internals, gauss = state
        rng.setstate((version, tuple(internals), gauss))


def rng_from_state(state) -> random.Random:
    """A fresh, unseeded :class:`random.Random` set to an
    :func:`rng_state` payload.  Resume uses it to replace a node's
    stream outright, without deriving the keyed stream first."""

    rng = random.Random.__new__(random.Random)
    restore_rng(rng, state)
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


def geometric_layers(weight: int) -> int:
    """Return the weight layer index used by Algorithm 2.

    Layer ``i`` holds nodes with ``2^(i-1) < w <= 2^i``; equivalently the
    layer of a positive integer weight ``w`` is ``ceil(log2(w))`` with
    weight 1 mapping to layer 0.
    """

    if weight <= 0:
        raise ValueError(f"weights must be positive, got {weight}")
    return ilog2(weight)
