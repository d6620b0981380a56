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

from typing import Dict, Tuple

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


#: Bits of every payload priced so far, shared by every simulator and
#: the MPC shuffle.  Payloads repeat heavily (a broadcast sends one
#: tuple to every neighbor, protocols reuse the same tags round after
#: round), so readers look a payload up with ``BITS_MEMO.get(payload)``
#: and price a miss with :func:`memo_bits`.
BITS_MEMO: Dict[Payload, int] = {}

#: Entries :data:`BITS_MEMO` holds before it starts over.
BITS_MEMO_LIMIT = 1 << 16


def memo_bits(payload: Payload) -> int:
    """Price a payload :data:`BITS_MEMO` missed and remember it.

    A full memo is cleared rather than evicted entry by entry: threads
    share it (the service runs jobs in threads), and ``clear`` never
    iterates a dict another thread may be growing.
    """

    bits = payload_bits(payload)
    if len(BITS_MEMO) >= BITS_MEMO_LIMIT:
        BITS_MEMO.clear()
    BITS_MEMO[payload] = bits
    return bits
