"""Array-native simulator backend (CSR adjacency + numpy round kernels).

The per-node-object simulator in :mod:`repro.congest.network` pays
Python-object overhead for every message and every node every round; at
n ≈ 10⁴–10⁵ that overhead dominates the run.  This module provides the
flat alternative (ROADMAP item NUM-1): the graph is compiled once into a
CSR adjacency structure, per-node protocol state lives in numpy arrays,
and each simulator round is executed by a *vectorized round kernel* that
exchanges all messages of the round as batched array operations.

Design constraints, in order of priority:

1. **Bit-compatibility.**  An array run must be indistinguishable from
   the object run: same outputs, same rounds/messages/bits/violations
   counters, same checkpoint payloads, same randomness.  Per-node RNG
   streams (``stable_rng(seed, node, proto)``) are independent, so a
   kernel draws for all of a round's nodes at once
   (:meth:`ArrayKernel.draw_below`), each exactly when the object
   program would.  Large batches of fresh streams are seeded in bulk,
   CPython's MT19937 replayed over numpy columns (:func:`mt_words`);
   the rest, and every stream a checkpoint reads or writes, are one
   ``random.Random`` per node.
2. **Same round loop.**  :class:`ArrayNetwork` subclasses
   :class:`~repro.congest.network.SynchronousNetwork`, and a kernel is
   a step-able engine driven by the parent's ``_drive`` — the one loop
   that also drives the object engine.  ``StepSnapshot`` streams,
   ``stop_on_limit`` budget cuts, ``capture_state`` / ``resume_state``
   checkpointing (payloads are interchangeable between backends) and
   cumulative :class:`~repro.congest.network.NetworkMetrics` therefore
   come from the same code on both backends; a kernel only steps
   rounds and reads or writes its own state.
3. **Transparent fallback.**  Kernels are registered per program class
   (:data:`KERNELS`); a program without a kernel — or a run using
   features the kernels do not model (no table, strict bandwidth
   enforcement) — silently executes on the inherited object engine.
   Callers never need to know which engine ran.
"""

from __future__ import annotations

import functools
import itertools
import operator
import os
import weakref
from typing import Callable, Dict, Hashable, List, Optional

import networkx as nx

try:  # numpy is an optional accelerator: without it, every run
    import numpy as np  # falls back to the object backend.
except ImportError:  # pragma: no cover - the image bakes numpy in
    np = None

from ..errors import InvalidInstance
from ..utils import rng_from_state, stable_rng, stable_seed
from .network import CONGEST, SynchronousNetwork, live_entry
from .node import NodeProgram

#: Environment variable consulted when an Instance does not pin a
#: backend explicitly; CI uses it to force the whole tier-1 suite
#: through the array path.
BACKEND_ENV = "REPRO_BACKEND"
OBJECT_BACKEND = "object"
ARRAY_BACKEND = "array"
BACKENDS = (OBJECT_BACKEND, ARRAY_BACKEND)


class ArrayBackendUnsupported(Exception):
    """Raised by a kernel that cannot model this particular run.

    Internal control flow only: :meth:`ArrayNetwork.run_stepwise`
    catches it and falls back to the object backend, so callers never
    see it.  Typical causes: weights too large for exact int64
    accounting, node ``repr`` collisions (the tie-break order would be
    ambiguous), or per-node configuration the kernel expects to be
    homogeneous.
    """


def resolve_backend(backend: Optional[str]) -> str:
    """Resolve an explicit/None backend choice against the environment."""

    if backend is None:
        backend = os.environ.get(BACKEND_ENV) or OBJECT_BACKEND
    if backend not in BACKENDS:
        raise InvalidInstance(
            f"unknown simulator backend {backend!r} (expected one of {BACKENDS})"
        )
    return backend


def make_network(
    graph: nx.Graph,
    model: str = CONGEST,
    seed: int = 0,
    bandwidth_factor: int = 8,
    strict: bool = False,
    backend: Optional[str] = None,
) -> SynchronousNetwork:
    """Simulator factory honouring the backend selection protocol.

    ``backend=None`` consults the ``REPRO_BACKEND`` environment
    variable and defaults to the object backend.  The array backend is
    safe to request unconditionally: algorithms without a vectorized
    kernel fall back to the object path transparently, bit-for-bit.
    """

    cls = ArrayNetwork if resolve_backend(backend) == ARRAY_BACKEND \
        else SynchronousNetwork
    return cls(graph, model=model, seed=seed,
               bandwidth_factor=bandwidth_factor, strict=strict)


# ----------------------------------------------------------------------
# CSR adjacency
# ----------------------------------------------------------------------
class GraphCSR:
    """Compressed-sparse-row adjacency compiled once per network.

    Each undirected edge appears as two directed positions; row ``i``
    spans ``indices[indptr[i]:indptr[i+1]]`` and is sorted by the
    neighbor's ``repr``-rank so kernels that need the object backend's
    lexicographic tie-breaks (``sorted(..., key=repr)``) can read rows
    in that order directly.  ``mirror[p]`` is the position of the
    reverse edge, which turns "messages node j sent" into "messages
    node i received" with one gather.
    """

    __slots__ = ("nodes", "index", "indptr", "indices", "mirror", "rank",
                 "degree", "rows", "n", "m2", "unique_reprs", "_edge_pos")

    def __init__(self, graph: nx.Graph):
        # networkx's node -> neighbor-dict map: iterating an entry walks
        # the neighbors in ``graph.neighbors`` order, with no views.
        adjacency = graph._adj
        nodes = list(graph.nodes)
        n = len(nodes)
        self.nodes = nodes
        self.index = {v: i for i, v in enumerate(nodes)}
        reprs = [repr(v) for v in nodes]
        self.unique_reprs = len(set(reprs)) == n
        order = sorted(range(n), key=reprs.__getitem__)
        rank = np.empty(n, dtype=np.int64)
        rank[order] = np.arange(n, dtype=np.int64)
        self.rank = rank
        degree = np.fromiter(
            (len(adjacency[v]) for v in nodes), dtype=np.int64, count=n,
        )
        self.degree = degree
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(degree, out=indptr[1:])
        self.indptr = indptr
        m2 = int(indptr[-1])
        self.n = n
        self.m2 = m2
        index = self.index
        # One flat pass over the adjacency; per-row rank order comes from
        # a stable lexsort instead of n python ``sorted`` calls.  ``rows``
        # is the primary (already sorted) key, so ``rows[perm] == rows``
        # and ties within a row keep adjacency order — exactly what the
        # stable python sort produced before.
        flat = np.fromiter(
            map(index.__getitem__,
                itertools.chain.from_iterable(
                    map(adjacency.__getitem__, nodes))),
            dtype=np.int64, count=m2,
        )
        rows = np.repeat(np.arange(n, dtype=np.int64), degree)
        perm = np.lexsort((rank[flat], rows))
        indices = flat[perm]
        self.indices = indices
        self.rows = rows
        # Mirrors pair the two directed positions of each undirected
        # edge: sorting positions by the canonical (min, max) endpoint
        # key makes every pair adjacent, and a singleton key is a
        # self-loop whose mirror is itself.
        mirror = np.arange(m2, dtype=np.int64)
        if m2:
            lo = np.minimum(rows, indices)
            hi = np.maximum(rows, indices)
            by_key = np.lexsort((lo, hi))
            paired = ((hi[by_key][:-1] == hi[by_key][1:])
                      & (lo[by_key][:-1] == lo[by_key][1:]))
            first = by_key[:-1][paired]
            second = by_key[1:][paired]
            mirror[first] = second
            mirror[second] = first
        self.mirror = mirror
        self._edge_pos = None

    def restrict(self, members, keep) -> "GraphCSR":
        """The CSR a fresh compile of a sub-graph would produce, sliced
        from this one without touching networkx.

        ``members`` lists the sub-graph's nodes as positions of this
        CSR, in the sub-graph's node order; ``keep`` marks the directed
        positions of its edges and must be symmetric
        (``keep[mirror] == keep``) with both ends in ``members``.  Rows
        keep their rank order, which is the sub-graph's ``repr`` order
        as long as reprs are unique — the one case this supports.
        """

        if not self.unique_reprs:
            raise ValueError("restrict needs unique node reprs")
        n = int(members.size)
        renumber = np.full(self.n, -1, dtype=np.int64)
        renumber[members] = np.arange(n, dtype=np.int64)
        kept = np.flatnonzero(keep)
        rows = renumber[self.rows[kept]]
        order = np.argsort(rows, kind="stable")
        kept = kept[order]
        sub = GraphCSR.__new__(GraphCSR)
        sub.n = n
        sub.m2 = int(kept.size)
        sub.rows = rows[order]
        sub.indices = renumber[self.indices[kept]]
        sub.degree = np.bincount(sub.rows, minlength=n).astype(np.int64)
        sub.indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(sub.degree, out=sub.indptr[1:])
        position = np.empty(self.m2, dtype=np.int64)
        position[kept] = np.arange(sub.m2, dtype=np.int64)
        sub.mirror = position[self.mirror[kept]]
        rank = np.empty(n, dtype=np.int64)
        rank[np.argsort(self.rank[members])] = np.arange(n, dtype=np.int64)
        sub.rank = rank
        sub.nodes = [self.nodes[i] for i in members.tolist()]
        sub.index = {v: i for i, v in enumerate(sub.nodes)}
        sub.unique_reprs = True
        sub._edge_pos = None
        return sub

    @property
    def edge_pos(self) -> Dict[tuple, int]:
        """``(row, col) -> position`` map, built lazily.

        Only the resume/restore paths need it, so steady-state runs
        never pay for the dict over every directed edge.
        """

        pos = self._edge_pos
        if pos is None:
            rows = self.rows.tolist()
            cols = self.indices.tolist()
            pos = {(i, j): p for p, (i, j) in enumerate(zip(rows, cols))}
            self._edge_pos = pos
        return pos


#: Per-graph CSR cache: the compiled adjacency is topology-only (no
#: weights, no seeds, never written by kernels), so every network built
#: over the same graph object can share one instance — repeated solves
#: on one workload skip the O(n + m) compile.  Weak keys keep graphs
#: collectable.
_CSR_CACHE: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def graph_csr(graph: nx.Graph) -> GraphCSR:
    """The cached :class:`GraphCSR` for ``graph``, compiled on first use.

    A cache hit is validated against the current node list and degree
    sequence, so adding/removing nodes or edges in place triggers a
    recompile.  (A degree-preserving rewire of the *same* graph object
    is the one mutation this misses; no supported path mutates solved
    graphs at all, let alone that way.)
    """

    try:
        cached = _CSR_CACHE.get(graph)
    except TypeError:  # unhashable / un-weakref-able graph subclass
        return GraphCSR(graph)
    if cached is not None and cached.n == graph.number_of_nodes():
        try:
            degrees = np.fromiter(
                map(len, map(graph._adj.__getitem__, cached.nodes)),
                dtype=np.int64, count=cached.n,
            )
        except KeyError:  # node set changed
            degrees = None
        if degrees is not None and np.array_equal(degrees, cached.degree):
            return cached
    csr = GraphCSR(graph)
    try:
        _CSR_CACHE[graph] = csr
    except TypeError:  # pragma: no cover - unhashable graph subclass
        pass
    return csr


# ----------------------------------------------------------------------
# Segment reductions over CSR rows
# ----------------------------------------------------------------------
def _seg_reduce(ufunc, values, indptr, empty):
    """Per-row ``ufunc`` reduction; ``empty`` fills zero-degree rows.

    ``reduceat`` with only the non-empty row starts is exact here
    because CSR rows are contiguous: the next non-empty start is always
    the current row's end.
    """

    out = np.full(len(indptr) - 1, empty, dtype=values.dtype)
    starts = indptr[:-1]
    nonempty = starts < indptr[1:]
    if values.size and nonempty.any():
        out[nonempty] = ufunc.reduceat(values, starts[nonempty])
    return out


def seg_max(values, indptr):
    """Row-wise max (empty rows get the dtype-appropriate minimum)."""

    empty = np.iinfo(values.dtype).min if values.dtype.kind == "i" else 0
    return _seg_reduce(np.maximum, values, indptr, empty)


def seg_sum(values, indptr):
    """Row-wise sum (empty rows get 0)."""

    return _seg_reduce(np.add, values, indptr, 0)


def seg_any(mask, indptr):
    """Row-wise logical OR of a boolean edge mask."""

    return _seg_reduce(np.logical_or, mask, indptr, False)


def bit_lengths(values):
    """Vectorized ``int.bit_length`` for non-negative int64 values.

    Exact for values below 2**52 (the float64 mantissa): ``frexp``
    returns the exponent of the exact float image, which for a positive
    integer equals its bit length.  Kernels must gate their inputs
    (:class:`ArrayBackendUnsupported`) before relying on this.
    """

    return np.frexp(values.astype(np.float64))[1].astype(np.int64)


def int_word_bits(values):
    """``word_bits`` for non-negative integer payload words."""

    return np.maximum(1, bit_lengths(values)) + 1


#: Guard for :func:`bit_lengths` exactness: kernels refuse inputs whose
#: integer payload words can reach this bound.
MAX_EXACT_INT = 1 << 50

#: Bits charged for a short string tag (see repro.congest.message).
TAG_BITS = 4


# ----------------------------------------------------------------------
# Bulk per-node RNG streams (CPython's MT19937, column-wise)
# ----------------------------------------------------------------------
#: A draw that seeds fewer fresh streams than this seeds them one by one
#: (``stable_rng``): below it the bulk seeding's fixed cost, one pass of
#: about 6,000 numpy calls per chunk (4 ms on a 2-CPU container), loses
#: to CPython's own seeding.  Measured break-even: 640-768 streams.
BANK_MIN_STREAMS = 640

#: Tempered output words kept per banked stream.  A stream that needs
#: more moves to a scalar ``random.Random`` (see :meth:`ArrayKernel.rng`).
BANK_WORDS = 8

#: Streams seeded per chunk; bounds the (624, chunk) ``uint32`` seeding
#: state (5 MB) whatever the batch size.
BANK_CHUNK = 2048

_MT_N, _MT_M = 624, 397

#: Where a node's stream lives (:attr:`ArrayKernel._stream`): not
#: derived yet, in the bank, or a ``random.Random`` in ``_rngs``.
_UNDRAWN, _BANKED, _SCALAR = 0, 1, 2


@functools.lru_cache(maxsize=None)
def _mt_constants() -> tuple:
    """``init_genrand(19650218)``, the state every seeding starts from,
    and the step indices, as ``uint32`` scalars (built once)."""

    mt = [19650218]
    for i in range(1, _MT_N):
        prev = mt[-1]
        mt.append((1812433253 * (prev ^ (prev >> 30)) + i) & 0xFFFFFFFF)
    return (tuple(map(np.uint32, mt)),
            tuple(map(np.uint32, range(_MT_N))))


def _mt_seed_chunk(lo, hi):
    """The state ``random.Random(key)`` holds right after seeding, one
    column per two-word key ``hi << 32 | lo``: CPython's
    ``init_by_array`` step for step, every step vectorised over the
    keys.  The loop runs 1,247 steps of five in-place ufunc calls, so
    per-call overhead is what it costs: outputs are positional and
    every constant is a prebuilt ``uint32`` scalar."""

    init, index = _mt_constants()
    u32 = np.uint32
    mt = np.empty((_MT_N, lo.size), dtype=u32)
    rows = list(mt)
    tmp = np.empty(lo.size, dtype=u32)
    shr, xor, mul, add, sub = (np.right_shift, np.bitwise_xor, np.multiply,
                               np.add, np.subtract)
    thirty = u32(30)
    # init_key[j] + j for j = 0, 1 (uint32 wrap-around, as in C).
    key_plus_j = (lo, hi + u32(1))
    rows[0][...] = init[0]
    prev = rows[0]
    # Each pass steps i up to 623, then mt[0] takes mt[623] and i wraps
    # to 1 for the pass's last step.  The first pass takes 624 steps
    # from i = 1, j alternating 0, 1; until the wrap the old mt[i] it
    # mixes in is still init_genrand's constant.
    mult = u32(1664525)
    for step, i in enumerate((*range(1, _MT_N), 1)):
        if step == _MT_N - 1:
            rows[0][...] = prev
        row = rows[i]
        shr(prev, thirty, tmp)
        xor(tmp, prev, tmp)
        mul(tmp, mult, tmp)
        xor(tmp, init[i] if step < _MT_N - 1 else row, row)
        add(row, key_plus_j[step & 1], row)
        prev = row
    # The second pass takes 623 steps from i = 2.
    mult = u32(1566083941)
    for step, i in enumerate((*range(2, _MT_N), 1)):
        if step == _MT_N - 2:
            rows[0][...] = prev
        row = rows[i]
        shr(prev, thirty, tmp)
        xor(tmp, prev, tmp)
        mul(tmp, mult, tmp)
        xor(row, tmp, row)
        sub(row, index[i], row)
        prev = row
    mt[0] = 0x80000000
    return mt


def mt_words(keys, count: int):
    """The first ``count`` outputs of ``random.Random(key)`` (each what
    ``getrandbits(32)`` returns) for every key, as a ``(count,
    len(keys))`` ``uint32`` array.

    Keys must lie in ``[2**32, 2**64)``: CPython seeds an int through
    MT19937's ``init_by_array`` over its 32-bit words, low word first,
    and this replays the two-word case.  ``count`` is at most 227, the
    words one twist yields from the seeded state alone.  Keys are
    seeded :data:`BANK_CHUNK` at a time.
    """

    if not 0 < count <= _MT_N - _MT_M:
        raise ValueError(f"count must lie in [1, {_MT_N - _MT_M}]")
    keys = np.asarray(keys, dtype=np.uint64)
    out = np.empty((count, keys.size), dtype=np.uint32)
    for start in range(0, keys.size, BANK_CHUNK):
        chunk = keys[start:start + BANK_CHUNK]
        if int(chunk.min()) < (1 << 32):
            raise ValueError("mt_words replays two-word keys only")
        mt = _mt_seed_chunk((chunk & 0xFFFFFFFF).astype(np.uint32),
                            (chunk >> 32).astype(np.uint32))
        # The first twist, for the words it yields before reading any
        # word it rewrote.
        y = (mt[:count] & 0x80000000) | (mt[1:count + 1] & 0x7FFFFFFF)
        y = mt[_MT_M:_MT_M + count] ^ (y >> 1) ^ ((y & 1) * 0x9908B0DF)
        # Tempering.
        y ^= y >> 11
        y ^= (y << 7) & 0x9D2C5680
        y ^= (y << 15) & 0xEFC60000
        y ^= y >> 18
        out[:, start:start + BANK_CHUNK] = y
    return out


# ----------------------------------------------------------------------
# Kernel base class and registry
# ----------------------------------------------------------------------
class ArrayKernel:
    """One vectorized algorithm on one :class:`GraphCSR`.

    Subclasses implement the whole protocol in array form and are
    responsible for *exact* metric accounting (they update the
    network's counters through :meth:`charge`).  They are built from
    the run's per-node parameter table (columns in CSR node order)
    plus the probe program, and raise :class:`ArrayBackendUnsupported`
    when the table holds values they cannot model or disagrees with
    the probe.  It is a step-able engine for
    :meth:`~repro.congest.network.SynchronousNetwork._drive`, with the
    object engine's interface:

    * :meth:`bind` / :meth:`start` — protocol index and ``on_start``
      semantics (before round 0),
    * :meth:`step` — one synchronous round (returns nothing, like the
      object engine's),
    * :meth:`draw_below` / :meth:`rng` — the per-node RNG streams, a
      round's draws in one call,
    * :meth:`export_*` / :meth:`restore` — the checkpoint payload, in
      the object backend's format so payloads are interchangeable; the
      base class writes and reads it from :attr:`MESSAGES` and the two
      per-node hooks :meth:`_program_state` / :meth:`_restore_program`,
    * :meth:`outputs` / :attr:`halted_count` / :attr:`total` — results.
    """

    #: Fully-qualified program class this kernel vectorizes.
    PROGRAM: str = ""

    #: The messages this kernel's protocol sends, as ``(tag, mask,
    #: words)``: ``mask`` names the per-directed-edge send mask and
    #: ``words`` the per-sender int64 arrays holding the payload words
    #: after the tag.  An edge with several masks set exports the first
    #: listed; resumed in-flight messages with any other tag force a
    #: fallback.
    MESSAGES: tuple = ()

    #: Coerce a resumed payload word to a true int (floats refused).
    _as_int = staticmethod(operator.index)

    def __init__(self, net: "ArrayNetwork", csr: GraphCSR,
                 probe: NodeProgram, table: dict):
        self.net = net
        self.csr = csr
        self.total = csr.n
        self.proto = 0
        self.tracking = False
        self._fresh: List[tuple] = []
        self._rngs: Dict[int, object] = {}
        self._stream = np.zeros(csr.n, dtype=np.int8)
        self._used = np.zeros(csr.n, dtype=np.int64)
        self._words = None  # (BANK_WORDS, n) uint32, on first bulk seed
        self._restored = False
        self.halted = np.zeros(csr.n, dtype=bool)
        self.halted_count = 0
        #: Final output per node position (``None`` until the node halts).
        self.node_output: List[object] = [None] * csr.n

    # -- engine wiring -------------------------------------------------
    def bind(self, proto: int) -> None:
        """Pin this run's protocol index (the RNG stream derivation)."""

        self.proto = proto

    def rng(self, i: int):
        """The per-node RNG ``stable_rng(seed, node, proto)`` — the
        object backend's stream — derived lazily.  A banked stream
        leaves the bank here: re-derived, then advanced past the words
        the bank already drew from it."""

        r = self._rngs.get(i)
        if r is None:
            r = self._rngs[i] = stable_rng(self.net.seed, self.csr.nodes[i],
                                           self.proto)
            if self._stream[i] == _BANKED and self._used[i]:
                r.getrandbits(32 * int(self._used[i]))
            self._stream[i] = _SCALAR
        return r

    def draw_below(self, idx, bound):
        """``self.rng(i).randrange(b)`` for every node position ``i`` in
        ``idx`` (distinct) and its bound ``b`` (an aligned array, or one
        value in ``[1, MAX_EXACT_INT)``), as an int64 array.

        Streams are independent, so the order of draws across nodes
        does not matter.  At least :data:`BANK_MIN_STREAMS` streams that
        first draw here are seeded together into the bank
        (:func:`mt_words`); each banked draw is CPython's
        ``_randbelow``, ``getrandbits(bit_length)`` with rejection, read
        off the banked words (one or two per draw).  Every other
        stream — a small batch, a one-word key, a stream that runs past
        its banked words, one restored from a payload — draws from its
        scalar :meth:`rng`.
        """

        idx = np.asarray(idx, dtype=np.int64)
        bound = np.broadcast_to(np.asarray(bound, dtype=np.int64), idx.shape)
        out = np.empty(idx.size, dtype=np.int64)
        if not idx.size:
            return out
        if int(bound.min()) < 1 or int(bound.max()) >= MAX_EXACT_INT:
            raise ValueError(f"bounds must lie in [1, {MAX_EXACT_INT})")
        fresh = idx[self._stream[idx] == _UNDRAWN]
        if fresh.size >= BANK_MIN_STREAMS:
            self._bank(fresh)
        banked = self._stream[idx] == _BANKED
        scalar = [np.flatnonzero(~banked)]
        if banked.any():
            scalar.append(self._draw_banked(idx, bound, banked, out))
        for j in np.concatenate(scalar).tolist():
            out[j] = self.rng(int(idx[j])).randrange(int(bound[j]))
        return out

    def _bank(self, fresh) -> None:
        """Seed the streams of node positions ``fresh`` into the bank.
        The SHA-256 key stays per node (:func:`~repro.utils.stable_seed`);
        a one-word key (below 2**32) is left to the scalar path."""

        nodes = self.csr.nodes
        seed, proto = self.net.seed, self.proto
        keys = np.array([stable_seed(seed, nodes[i], proto)
                         for i in fresh.tolist()], dtype=np.uint64)
        wide = keys >= (1 << 32)
        fresh, keys = fresh[wide], keys[wide]
        if not fresh.size:
            return
        if self._words is None:
            self._words = np.empty((BANK_WORDS, self.csr.n), dtype=np.uint32)
        self._words[:, fresh] = mt_words(keys, BANK_WORDS)
        self._used[fresh] = 0
        self._stream[fresh] = _BANKED

    def _draw_banked(self, idx, bound, banked, out):
        """The banked draws of :meth:`draw_below`, rejection rounds
        vectorised; returns the positions (into ``idx``) whose stream
        ran out of banked words, for the scalar path to finish."""

        words, used = self._words, self._used
        limit = words.shape[0]
        pos = np.flatnonzero(banked)
        spilled = []
        while pos.size:
            node = idx[pos]
            bits = bit_lengths(bound[pos])
            at = used[node]
            need = at + np.where(bits > 32, 2, 1)
            fits = need <= limit
            if not fits.all():
                spilled.append(pos[~fits])
                pos, node, bits, at, need = (pos[fits], node[fits],
                                             bits[fits], at[fits], need[fits])
            # getrandbits(k): the first word holds the low 32 bits; a
            # k <= 32 draw keeps its top k bits, a wider draw the top
            # k - 32 bits of a second word as its high bits.
            first = words[at, node].astype(np.int64)
            second = words[np.minimum(at + 1, limit - 1),
                           node].astype(np.int64)
            value = ((first >> np.maximum(32 - bits, 0))
                     | ((second >> np.minimum(64 - bits, 32)) << 32))
            used[node] = need
            accepted = value < bound[pos]
            out[pos[accepted]] = value[accepted]
            pos = pos[~accepted]
        return np.concatenate(spilled) if spilled else np.empty(0, np.int64)

    def record_halts(self, indices) -> None:
        """Mark nodes halted and log them (graph order) for
        ``StepSnapshot.newly_halted``; ``node_output`` must already hold
        their outputs."""

        self.halted[indices] = True
        self.halted_count += int(len(indices))
        if self.tracking:
            nodes = self.csr.nodes
            out = self.node_output
            for i in indices:
                i = int(i)
                self._fresh.append((nodes[i], out[i]))

    def drain_fresh(self) -> tuple:
        fresh = tuple(self._fresh)
        self._fresh.clear()
        return fresh

    def pending_nodes(self) -> tuple:
        nodes = self.csr.nodes
        return tuple(nodes[int(i)] for i in np.flatnonzero(~self.halted))

    def charge(self, count: int, bits: int, max_bits: int,
               violations: int) -> None:
        """Accumulate one batch of sends into the network counters."""

        if not count:
            return
        metrics = self.net.metrics
        metrics.messages += count
        metrics.bits += bits
        if max_bits > metrics.max_bits_per_edge_round:
            metrics.max_bits_per_edge_round = max_bits
        if max_bits > self.net._run_max_bits:
            self.net._run_max_bits = max_bits
        metrics.violations += violations

    def charge_sends(self, msgs, bits) -> None:
        """Meter one batch of sends from per-sender count/size arrays.

        ``msgs[i]`` messages of ``bits[i]`` bits each (``bits`` may be a
        scalar); exactly the totals the object backend's per-node
        ``_collect`` accumulates, including the per-message CONGEST
        violation count.
        """

        sel = msgs > 0
        if not sel.any():
            return
        bits = np.broadcast_to(np.asarray(bits, dtype=np.int64), msgs.shape)
        m = msgs[sel]
        b = bits[sel]
        violations = 0
        if self.congest:
            over = b > self.net.bandwidth
            if over.any():
                violations = int(m[over].sum())
        self.charge(int(m.sum()), int((m * b).sum()), int(b.max()),
                    violations)

    @property
    def congest(self) -> bool:
        return self.net.model == CONGEST

    # -- protocol ------------------------------------------------------
    def start(self) -> None:
        """``on_start`` semantics for every node (no inbox)."""

    def step(self, round_index: int) -> None:  # pragma: no cover
        raise NotImplementedError

    def outputs(self) -> Dict[Hashable, object]:
        """Final outputs keyed by node, in graph order."""

        return {node: self.node_output[i]
                for i, node in enumerate(self.csr.nodes)}

    def export_in_flight(self) -> List[list]:
        """Checkpoint payload: ``[src, dst, (tag, *words)]`` per pending
        send, in CSR position order."""

        nodes = self.csr.nodes
        rows, indices = self.csr.rows, self.csr.indices
        messages = [(tag, getattr(self, mask), [getattr(self, w) for w in words])
                    for tag, mask, words in self.MESSAGES]
        pending = np.logical_or.reduce([mask for _, mask, _ in messages])
        out = []
        for p in np.flatnonzero(pending).tolist():
            s = int(rows[p])
            for tag, mask, words in messages:
                if mask[p]:
                    break
            payload = (tag, *(int(word[s]) for word in words))
            out.append([nodes[s], nodes[int(indices[p])], payload])
        return out

    def export_halted(self) -> Dict[Hashable, object]:
        """Checkpoint payload: output per halted node (graph order)."""

        nodes = self.csr.nodes
        out = self.node_output
        return {nodes[int(i)]: out[int(i)]
                for i in np.flatnonzero(self.halted)}

    def export_live(self) -> Dict[Hashable, dict]:
        """Checkpoint payload: a live entry per running node."""

        nodes = self.csr.nodes
        return {nodes[i]: live_entry(self.rng(i), self._program_state(i))
                for i in np.flatnonzero(~self.halted).tolist()}

    def _program_state(self, i: int) -> dict:  # pragma: no cover
        """Node ``i``'s program state, as its program's ``export_state``."""

        raise NotImplementedError

    def _row(self, i: int) -> slice:
        indptr = self.csr.indptr
        return slice(int(indptr[i]), int(indptr[i + 1]))

    def _edge_set(self, mask, i: int) -> set:
        """The neighbors on node ``i``'s row where ``mask`` is set."""

        row = self._row(i)
        nbr = self.csr.indices[row]
        nodes = self.csr.nodes
        return {nodes[int(j)] for j in nbr[mask[row]]}

    # -- resume --------------------------------------------------------
    def restore(self, state: dict) -> None:
        """Load a checkpoint payload (idempotent; see
        :meth:`validate_resume`)."""

        if self._restored:
            return
        self._restore_halted(state)
        self._restore(state)
        self._restored = True

    def validate_resume(self, state: dict) -> None:
        """Attempt the restore eagerly, before the engine commits.

        A payload the kernel cannot model — a node marked asleep,
        foreign payload tags, structurally odd state — surfaces here as
        :class:`ArrayBackendUnsupported` so the run falls back to the
        object backend *before* any protocol-index or metric side
        effects.  Genuine payload corruption (a node the graph does not
        know) still raises :class:`~repro.errors.SimulationError`
        exactly like the object backend.
        """

        try:
            self.restore(state)
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            raise ArrayBackendUnsupported(str(exc)) from exc

    def _restore_halted(self, state: dict) -> None:
        index = self.csr.index
        for node, output in state["halted"].items():
            i = index[node]
            self.halted[i] = True
            self.halted_count += 1
            self.node_output[i] = output

    def _live_program_state(self, state: dict, i: int) -> dict:
        """Fetch node ``i``'s live entry, mirroring the object backend's
        unknown-node error.  An entry marked asleep falls back, so the
        object engine refuses it with its own error."""

        from ..errors import SimulationError

        node = self.csr.nodes[i]
        entry = state["live"].get(node)
        if entry is None:
            raise SimulationError(
                f"resume state knows nothing about node {node!r}"
            )
        if entry["sleeping"]:
            raise ArrayBackendUnsupported("no engine parks nodes")
        if entry["rng"] is not None:
            # A ``None`` RNG is a fresh entry spliced in by the
            # dynamic-graph compat policy: it keeps the lazily-derived
            # stable stream, matching the object backend bit for bit.
            # Any other state replaces the stream outright, unseeded.
            self._rngs[i] = rng_from_state(entry["rng"])
            self._stream[i] = _SCALAR
        return entry["program"]

    def _restore(self, state: dict) -> None:
        """Load every running node's live entry, then the in-flight
        messages through :attr:`MESSAGES`."""

        for i in np.flatnonzero(~self.halted).tolist():
            self._restore_program(i, self._live_program_state(state, i))
        index = self.csr.index
        edge_pos = self.csr.edge_pos
        messages = {tag: (getattr(self, mask), [getattr(self, w) for w in words])
                    for tag, mask, words in self.MESSAGES}
        for src, dst, payload in state["in_flight"]:
            s = index[src]
            p = edge_pos[(s, index[dst])]
            kind = payload[0]
            if kind not in messages:
                raise ArrayBackendUnsupported(f"unknown payload {kind!r}")
            mask, words = messages[kind]
            mask[p] = True
            for k, word in enumerate(words, 1):
                word[s] = self._as_int(payload[k])

    def _restore_program(self, i: int, state: dict) -> None:  # pragma: no cover
        """Load node ``i``'s program state (the inverse of
        :meth:`_program_state`)."""

        raise NotImplementedError

    def _set_edges(self, mask, i: int, members) -> None:
        """Set ``mask`` on node ``i``'s row for each neighbor in ``members``."""

        index = self.csr.index
        edge_pos = self.csr.edge_pos
        for u in members:
            mask[edge_pos[(i, index[u])]] = True


#: Registry of vectorized kernels, keyed by the fully-qualified name of
#: the NodeProgram class they replace.  Keyed by name (not type) so the
#: congest package never imports the algorithm modules (which import
#: congest — registration stays cycle-free).
KERNELS: Dict[str, type] = {}


def register_kernel(kernel_cls: type) -> type:
    """Register ``kernel_cls`` for its :attr:`ArrayKernel.PROGRAM`."""

    path = kernel_cls.PROGRAM
    if not path:
        raise ValueError(f"{kernel_cls.__name__} does not name its PROGRAM")
    if path in KERNELS:
        raise ValueError(f"kernel for {path!r} already registered")
    KERNELS[path] = kernel_cls
    return kernel_cls


def _program_path(program: NodeProgram) -> str:
    cls = type(program)
    return f"{cls.__module__}.{cls.__qualname__}"


# ----------------------------------------------------------------------
# The array-native network
# ----------------------------------------------------------------------
class ArrayNetwork(SynchronousNetwork):
    """Array-native drop-in for :class:`SynchronousNetwork`.

    Construction is identical; behaviour is identical (bit-for-bit,
    including metrics and checkpoint payloads).  The only difference is
    *how* a run executes: when the program has a registered kernel, the
    caller passes its per-node parameter table and the run uses no
    object-only feature, the whole protocol runs as batched numpy
    operations over a CSR adjacency; otherwise the inherited object path
    runs.  The parity suite in ``tests/congest/test_array_backend.py``
    pins the equivalence.
    """

    def __init__(self, graph: nx.Graph, model: str = CONGEST, seed: int = 0,
                 bandwidth_factor: int = 8, strict: bool = False):
        super().__init__(graph, model=model, seed=seed,
                         bandwidth_factor=bandwidth_factor, strict=strict)
        self._csr: Optional[GraphCSR] = None

    @classmethod
    def over_csr(cls, csr: GraphCSR, build_graph: Callable[[], nx.Graph],
                 model: str = CONGEST, seed: int = 0,
                 bandwidth_factor: int = 8,
                 strict: bool = False) -> "ArrayNetwork":
        """A network over an already compiled CSR (say, one
        :meth:`GraphCSR.restrict` sliced out of a parent's).

        It behaves exactly like ``ArrayNetwork(build_graph(), ...)``,
        but ``build_graph`` runs only if something needs the networkx
        graph — in practice, a run that falls back to the object engine.
        """

        net = cls.__new__(cls)
        net._graph = None
        net._build_graph = build_graph
        net._configure(csr.n, model, seed, bandwidth_factor, strict)
        net._csr = csr
        return net

    @property
    def graph(self) -> nx.Graph:
        if self._graph is None:
            self._graph = self._build_graph()
        return self._graph

    @graph.setter
    def graph(self, value: nx.Graph) -> None:
        self._graph = value

    def _ensure_csr(self) -> GraphCSR:
        if self._csr is None:
            self._csr = graph_csr(self.graph)
        return self._csr

    def run_stepwise(
        self,
        program_factory: Callable[[Hashable], NodeProgram],
        max_rounds: int = 10_000,
        label: str = "protocol",
        stop_on_limit: bool = False,
        checkpoint_every: Optional[int] = None,
        capture_state: bool = False,
        resume_state: Optional[dict] = None,
        table: Optional[dict] = None,
    ):
        """Pick a kernel, or fall back to the object engine.

        ``table`` maps parameter names to per-node columns in this
        network's node order, ``self.graph``'s (or to one value shared
        by every node); each kernel documents the names it reads.  The
        kernel is built from the table: ``program_factory`` runs once,
        for a *probe* program on the first node, whose class picks the
        kernel from :data:`KERNELS` and whose parameters must agree
        with the table's first row.  The kernel then runs through the
        same round loop as the object engine,
        :meth:`~repro.congest.network.SynchronousNetwork._drive`.

        Falls back to the inherited implementation whenever the array
        engine cannot guarantee bit-compatibility: numpy missing, no
        table, ``strict`` bandwidth enforcement (the exact violating
        ``(src, dst)`` pair matters there), an empty graph, an
        unregistered program class, or kernel-level feasibility checks
        failing.
        """

        kernel = None
        if not (np is None or table is None or self.strict
                or self._n == 0):
            kernel = self._kernel(program_factory, table, resume_state)
        if kernel is None:
            return super().run_stepwise(
                program_factory, max_rounds, label, stop_on_limit,
                checkpoint_every, capture_state, resume_state,
            )
        return self._drive(kernel, max_rounds, label, stop_on_limit,
                           checkpoint_every, capture_state, resume_state)

    def _kernel(self, program_factory: Callable[[Hashable], NodeProgram],
                table: dict, resume_state: Optional[dict]):
        """The registered kernel for the probe's program class, built
        (and, on resume, restored) eagerly; ``None`` if there is none
        or it cannot model this run."""

        csr = self._ensure_csr()
        probe = program_factory(csr.nodes[0])
        kernel_cls = KERNELS.get(_program_path(probe))
        if kernel_cls is None:
            return None
        try:
            kernel = kernel_cls(self, csr, probe, table)
            if resume_state is not None:
                kernel.validate_resume(resume_state)
        except ArrayBackendUnsupported:
            return None
        return kernel


# Kernel registration (imports at the bottom: array_kernels imports the
# base class and registry from this module).
if np is not None:
    from . import array_kernels  # noqa: F401,E402

__all__ = [
    "ARRAY_BACKEND",
    "ArrayBackendUnsupported",
    "ArrayKernel",
    "ArrayNetwork",
    "BACKENDS",
    "BACKEND_ENV",
    "GraphCSR",
    "KERNELS",
    "MAX_EXACT_INT",
    "OBJECT_BACKEND",
    "TAG_BITS",
    "bit_lengths",
    "graph_csr",
    "int_word_bits",
    "make_network",
    "mt_words",
    "register_kernel",
    "resolve_backend",
    "seg_any",
    "seg_max",
    "seg_sum",
]
