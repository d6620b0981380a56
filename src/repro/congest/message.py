"""Message representation and CONGEST bit accounting.

In the CONGEST model each link carries one B-bit message per round, with
B = O(log n).  We model a message payload as a tuple of *words* (bools,
ints, floats and short strings) and charge bits per word:

* ``bool``  — 1 bit,
* ``int``   — its two's-complement bit length (at least 1) plus a sign bit,
* ``float`` — 64 bits (the paper charges O(log Δ/ε²) bits for fixed-point
  attenuation values; a float is our fixed-width stand-in and the ledger
  charges extra rounds when a payload exceeds the bandwidth),
* ``str``   — short strings (≤ 12 chars) are protocol-constant message
  tags drawn from a fixed finite alphabet and cost 4 bits; longer strings
  are charged 8 bits per character (they carry real data).
"""

from __future__ import annotations

from typing import Tuple

Word = bool | int | float | str
Payload = Tuple[Word, ...]


def word_bits(word: Word) -> int:
    """Return the number of bits charged for one payload word."""

    if isinstance(word, bool):
        return 1
    if isinstance(word, int):
        return max(1, abs(word).bit_length()) + 1
    if isinstance(word, float):
        return 64
    if isinstance(word, str):
        return 4 if len(word) <= 12 else 8 * len(word)
    raise TypeError(f"unsupported message word type: {type(word).__name__}")


def payload_bits(payload: Payload) -> int:
    """Total bits charged for a payload (sum over its words)."""

    return sum(word_bits(word) for word in payload)

