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
   streams (``stable_rng(seed, node, proto)``) are independent, so the
   kernels keep one ``random.Random`` per node and draw from it exactly
   when the object program would — only the message exchange and the
   state updates are vectorized.
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
   features the kernels do not model (no table, participants subsets,
   quiescence, strict bandwidth enforcement, trace or round-end hooks)
   — silently executes on the inherited object engine.  Callers never
   need to know which engine ran.

Only the bit-accounting *diagnostics* differ: the array backend has no
payload memo cache, so ``metrics.payload_cache`` stays empty (it is
documented as diagnostic-only and excluded from artifacts).
"""

from __future__ import annotations

import itertools
import os
import weakref
from typing import Callable, Dict, Hashable, Iterable, List, Optional

import networkx as nx

try:  # numpy is an optional accelerator: without it, every run
    import numpy as np  # falls back to the object backend.
except ImportError:  # pragma: no cover - the image bakes numpy in
    np = None

from ..errors import InvalidInstance
from ..utils import restore_rng, stable_rng
from .network import CONGEST, SynchronousNetwork
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
    * :meth:`step` — one synchronous round (it returns nothing: the
      delivered count only feeds quiescence and the round-end hook,
      and runs with either never reach a kernel),
    * :meth:`export_*` / :meth:`restore` — the checkpoint payload, in
      the object backend's format so payloads are interchangeable,
    * :meth:`outputs` / :attr:`halted_count` / :attr:`total` — results.
    """

    #: Fully-qualified program class this kernel vectorizes.
    PROGRAM: str = ""

    #: Payload tags this kernel's protocol uses; resumed in-flight
    #: messages with any other tag force a fallback.
    KINDS: tuple = ()

    def __init__(self, net: "ArrayNetwork", csr: GraphCSR,
                 probe: NodeProgram, table: dict):
        self.net = net
        self.csr = csr
        self.total = csr.n
        self.proto = 0
        self.tracking = False
        self._fresh: List[tuple] = []
        self._rngs: Dict[int, object] = {}
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
        object backend's stream — derived lazily."""

        r = self._rngs.get(i)
        if r is None:
            r = self._rngs[i] = stable_rng(self.net.seed, self.csr.nodes[i],
                                           self.proto)
        return r

    def record_halts(self, indices) -> None:
        """Mark nodes halted and log them (participant order) for
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
        """Final outputs keyed by node, in participant order."""

        return {node: self.node_output[i]
                for i, node in enumerate(self.csr.nodes)}

    def export_in_flight(self) -> List[list]:  # pragma: no cover
        raise NotImplementedError

    def export_halted(self) -> Dict[Hashable, object]:
        """Checkpoint payload: output per halted node (participant order)."""

        nodes = self.csr.nodes
        out = self.node_output
        return {nodes[int(i)]: out[int(i)]
                for i in np.flatnonzero(self.halted)}

    def export_live(self) -> Dict[Hashable, dict]:  # pragma: no cover
        raise NotImplementedError

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
            restore_rng(self.rng(i), entry["rng"])
        return entry["program"]

    def _restore(self, state: dict) -> None:  # pragma: no cover
        raise NotImplementedError


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
        participants: Optional[Iterable[Hashable]] = None,
        max_rounds: int = 10_000,
        label: str = "protocol",
        quiescence_halts: bool = False,
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
        table, a participant subset, quiescence scheduling, a trace or
        round-end hook, ``strict`` bandwidth enforcement (the exact
        violating ``(src, dst)`` pair matters there), an unregistered
        program class, or kernel-level feasibility checks failing.
        """

        kernel = None
        if not (np is None or table is None or participants is not None
                or quiescence_halts or self.strict or self.trace is not None
                or self.on_round_end is not None or self._n == 0):
            kernel = self._kernel(program_factory, table, resume_state)
        if kernel is None:
            return super().run_stepwise(
                program_factory, participants, max_rounds, label,
                quiescence_halts, stop_on_limit, checkpoint_every,
                capture_state, resume_state,
            )
        return self._drive(kernel, max_rounds, label, False, stop_on_limit,
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
    "register_kernel",
    "resolve_backend",
    "seg_any",
    "seg_max",
    "seg_sum",
]
