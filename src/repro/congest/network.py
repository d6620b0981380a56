"""Synchronous message-passing network simulator (LOCAL / CONGEST).

The simulator executes a :class:`~repro.congest.node.NodeProgram` on every
node of a graph in lockstep rounds, delivering each round's
messages at the start of the next round, exactly as the synchronous model
of Peleg's book prescribes.  It meters:

* rounds executed,
* messages and bits sent,
* the maximum bits carried by any directed edge in any round, and
* CONGEST bandwidth violations (messages larger than ``bandwidth`` bits).

In ``strict`` mode a violation raises; by default it is recorded so that
experiments can *measure* congestion (e.g. the naive line-graph simulation
of Section 2.4, whose whole point is that it violates CONGEST by a Δ
factor unless the aggregation mechanism of Theorem 2.8 is used).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Dict, Hashable, List, Optional

import networkx as nx

from ..errors import BandwidthViolation, RoundLimitExceeded, SimulationError
from ..utils import restore_rng, rng_state, stable_rng
from .message import Envelope, payload_bits
from .node import NodeContext, NodeProgram

#: Execution models.  LOCAL imposes no bandwidth limit; CONGEST limits each
#: message to ``bandwidth_factor * ceil(log2 n)`` bits.
LOCAL = "LOCAL"
CONGEST = "CONGEST"


@dataclass
class NetworkMetrics:
    """Counters accumulated over one or more protocol executions."""

    rounds: int = 0
    messages: int = 0
    bits: int = 0
    max_bits_per_edge_round: int = 0
    violations: int = 0
    round_breakdown: Dict[str, int] = field(default_factory=dict)

    def charge_rounds(self, rounds: int, label: str = "protocol") -> None:
        self.rounds += rounds
        self.round_breakdown[label] = self.round_breakdown.get(label, 0) + rounds


@dataclass
class StepSnapshot:
    """Mid-run view yielded by :meth:`SynchronousNetwork.run_stepwise`.

    ``newly_halted`` lists the ``(node, output)`` pairs of nodes that
    halted since the previous snapshot, so an anytime consumer can
    maintain a partial solution incrementally instead of re-scanning
    all ``n`` outputs at every checkpoint.  The last snapshot of a run
    has ``final=True`` (it is emitted even when the round count does
    not align with ``checkpoint_every``).

    ``state`` is the full execution state at this boundary — only on
    the final snapshot of a run started with ``capture_state=True``
    (the resume protocol needs exactly the point where a budget cut
    the run; capturing every boundary would tax the common path).
    Feed it back through ``run_stepwise(..., resume_state=...)`` to
    continue the run as if it had never stopped.
    """

    rounds: int
    halted: int
    total: int
    newly_halted: tuple
    final: bool = False
    state: Optional[dict] = None


@dataclass
class RunResult:
    """Outcome of executing one protocol on the network.

    ``metrics`` is this run's **own** delta — a fresh
    :class:`NetworkMetrics` covering exactly the rounds/messages/bits
    of this protocol execution, never an alias of the network-global
    cumulative counter (which keeps accumulating across runs and lives
    on :attr:`SynchronousNetwork.metrics`).  Concurrent or
    multi-protocol consumers can therefore read per-run totals without
    double counting.  ``completed`` is false when a ``stop_on_limit``
    run exhausted its round budget with nodes still unhalted.
    """

    outputs: Dict[Hashable, object]
    rounds: int
    metrics: NetworkMetrics
    completed: bool = True

    def output_set(self, value=True) -> set:
        """Return the nodes whose output equals ``value`` (membership style)."""

        return {node for node, out in self.outputs.items() if out == value}


class SynchronousNetwork:
    """A synchronous network over a fixed undirected graph.

    Parameters
    ----------
    graph:
        The communication topology.  Node identifiers may be any hashable.
    model:
        ``LOCAL`` or ``CONGEST``.
    seed:
        Master seed; each node receives an independent deterministic RNG
        derived from ``(seed, node, protocol_index)`` so repeated protocol
        executions on the same network do not reuse randomness.
    bandwidth_factor:
        CONGEST messages may carry ``bandwidth_factor * ceil(log2 n)`` bits.
        The classic model is ``O(log n)``; the paper's Appendix B.3
        explicitly groups Θ(1/ε²) rounds to ship longer numbers, which we
        reproduce by charging extra rounds in the drivers instead of
        widening messages.
    strict:
        If true, a bandwidth violation raises :class:`BandwidthViolation`
        instead of being recorded.
    """

    def __init__(self, graph: nx.Graph, model: str = CONGEST, seed: int = 0,
                 bandwidth_factor: int = 8, strict: bool = False):
        self.graph = graph
        self._configure(graph.number_of_nodes(), model, seed,
                        bandwidth_factor, strict)

    def _configure(self, n: int, model: str, seed: int,
                   bandwidth_factor: int, strict: bool) -> None:
        """Everything but the graph: model, seed, bandwidth, counters."""

        if model not in (LOCAL, CONGEST):
            raise ValueError(f"unknown model {model!r}")
        self.model = model
        self.seed = seed
        self.strict = strict
        self.bandwidth = bandwidth_factor * math.ceil(math.log2(max(2, n)))
        self.metrics = NetworkMetrics()
        self._protocol_index = 0
        self._n = n
        #: Payloads repeat heavily (broadcasts send one tuple to every
        #: neighbor, protocols reuse the same tags round after round), so
        #: bit-accounting is memoised per payload tuple.  The cache is
        #: shared across runs and bounded: on overflow the oldest entry
        #: is evicted (FIFO over dict insertion order) instead of the
        #: cache silently ceasing to admit new payloads.
        self._bits_cache: Dict[tuple, int] = {}
        self._bits_cache_limit = 1 << 16
        #: Largest single message of the *current* run, reset per run so
        #: RunResult.metrics can report a per-run max while the network
        #: counter keeps the cumulative max.
        self._run_max_bits = 0
        #: Optional callback ``(round_index, envelope)`` invoked for every
        #: message sent; used by the line-graph congestion auditor.
        self.trace: Optional[Callable[[int, Envelope], None]] = None

    @cached_property
    def _adjacency(self) -> Dict[Hashable, tuple]:
        """Adjacency computed once, on the first object-engine run;
        every later run reuses it instead of re-walking the networkx
        structure (a vectorised run never needs it)."""

        graph = self.graph
        return {node: tuple(graph.neighbors(node)) for node in graph.nodes}

    # ------------------------------------------------------------------
    # protocol execution
    # ------------------------------------------------------------------
    def run(
        self,
        program_factory: Callable[[Hashable], NodeProgram],
        max_rounds: int = 10_000,
        label: str = "protocol",
        stop_on_limit: bool = False,
    ) -> RunResult:
        """Execute one protocol and accumulate its cost into ``metrics``.

        The protocol ends when every node has halted.  With
        ``stop_on_limit`` an exhausted ``max_rounds`` budget ends the
        run cooperatively — the partial outputs are returned with
        ``completed=False`` — instead of raising
        :class:`~repro.errors.RoundLimitExceeded`; this is the anytime
        protocol's budget interruption, and it costs nothing beyond the
        rounds actually executed.

        Every node that has not halted is stepped every round
        (synchronous semantics: nodes may act spontaneously).  Halted
        nodes leave the runnable list and a running halted counter
        replaces per-round O(n) scans, so late protocol phases where
        almost every node has finished run in time proportional to the
        survivors, not to n.

        The returned :class:`RunResult` carries this run's private
        metrics delta; the cumulative totals keep accruing on
        ``self.metrics``.
        """

        from ..utils import drain

        return drain(self.run_stepwise(
            program_factory, max_rounds=max_rounds, label=label,
            stop_on_limit=stop_on_limit,
        ))

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
        """Generator form of :meth:`run` for anytime consumers.

        With ``checkpoint_every=k`` the generator yields a
        :class:`StepSnapshot` after every ``k`` executed rounds plus one
        final snapshot, then returns the :class:`RunResult` (readable
        as ``StopIteration.value``).  With ``checkpoint_every=None`` it
        never yields — :meth:`run` drains it in one ``next()`` — so the
        default path pays no snapshot bookkeeping.  Closing the
        generator early abandons the run without charging further
        rounds.

        Checkpoint/resume (the warm-start protocol):

        * ``capture_state=True`` attaches the full execution state to
          the run's *final* snapshot — next round index, undelivered
          in-flight messages, halted nodes with their outputs, and per
          live node the program's dynamic state
          (:meth:`~repro.congest.node.NodeProgram.export_state`) and
          RNG state, plus the cumulative metric counters.
        * ``resume_state=<that dict>`` restores it: programs are built
          by the factory but ``restore_state`` replaces ``on_start``
          (no side effects re-run), round numbering and the snapshot
          cadence continue from the captured boundary, in-flight mail
          is re-delivered, and metric accounting *continues* — the
          captured counters are merged into ``self.metrics`` and only
          the continuation's rounds are charged — so a truncated run
          resumed here is bit-for-bit the run that never stopped.
          ``max_rounds`` stays a cap on the *cumulative* round count.

        ``table`` is the per-node parameter table the array engine
        builds its round kernel from (see
        :meth:`repro.congest.ArrayNetwork.run_stepwise`); this engine
        builds every program with ``program_factory`` and ignores it.
        """

        engine = _ObjectEngine(self, program_factory)
        return (yield from self._drive(
            engine, max_rounds, label, stop_on_limit,
            checkpoint_every, capture_state, resume_state,
        ))

    def _drive(self, engine, max_rounds: int, label: str,
               stop_on_limit: bool, checkpoint_every: Optional[int],
               capture_state: bool, resume_state: Optional[dict]):
        """The synchronous round loop, for any step-able engine.

        ``engine`` is an :class:`_ObjectEngine` or an array kernel
        (:class:`repro.congest.array_network.ArrayKernel`); both expose
        ``bind`` / ``start`` / ``restore`` / ``step`` / ``drain_fresh``
        / ``pending_nodes`` / ``outputs`` / ``export_*`` and the
        ``halted_count`` / ``total`` counters.  Everything else about a
        run — protocol index, resume-counter merge, the round cap,
        snapshots, the per-run metrics delta and the captured state —
        is decided here, once, for both.  A run ends when every node
        has halted or the round cap is reached.
        """

        if checkpoint_every is not None and checkpoint_every < 1:
            raise ValueError(
                f"checkpoint_every must be >= 1, got {checkpoint_every}"
            )
        self._protocol_index += 1
        engine.bind(self._protocol_index)
        metrics = self.metrics
        base_messages = metrics.messages
        base_bits = metrics.bits
        base_violations = metrics.violations
        self._run_max_bits = 0
        tracking = checkpoint_every is not None
        engine.tracking = tracking

        start_round = 0
        if resume_state is None:
            engine.start()
        else:
            start_round = resume_state["round"]
            engine.restore(resume_state)
            counters = resume_state["metrics"]
            metrics.messages += counters["messages"]
            metrics.bits += counters["bits"]
            metrics.violations += counters["violations"]
            metrics.max_bits_per_edge_round = max(
                metrics.max_bits_per_edge_round,
                counters["max_bits_per_edge_round"],
            )
            metrics.rounds += counters["rounds"]
            for phase_label, charged in counters["round_breakdown"].items():
                metrics.round_breakdown[phase_label] = (
                    metrics.round_breakdown.get(phase_label, 0) + charged
                )

        total = engine.total
        rounds_used = start_round
        for round_index in range(start_round, max_rounds):
            if engine.halted_count == total:
                break
            engine.step(round_index)
            rounds_used = round_index + 1
            if tracking and rounds_used % checkpoint_every == 0:
                yield StepSnapshot(rounds=rounds_used,
                                   halted=engine.halted_count, total=total,
                                   newly_halted=engine.drain_fresh())
        else:
            if engine.halted_count != total and not stop_on_limit:
                raise RoundLimitExceeded(max_rounds, engine.pending_nodes())

        outputs = engine.outputs()
        metrics.charge_rounds(rounds_used - start_round, label)
        run_metrics = NetworkMetrics(
            rounds=rounds_used,
            messages=metrics.messages - base_messages,
            bits=metrics.bits - base_bits,
            max_bits_per_edge_round=self._run_max_bits,
            violations=metrics.violations - base_violations,
            round_breakdown={label: rounds_used} if rounds_used else {},
        )
        if tracking:
            state = None
            if capture_state:
                state = {
                    "round": rounds_used,
                    "in_flight": engine.export_in_flight(),
                    "halted": engine.export_halted(),
                    "live": engine.export_live(),
                    "metrics": {
                        "rounds": metrics.rounds,
                        "messages": metrics.messages,
                        "bits": metrics.bits,
                        "max_bits_per_edge_round":
                            metrics.max_bits_per_edge_round,
                        "violations": metrics.violations,
                        "round_breakdown": dict(metrics.round_breakdown),
                    },
                }
            yield StepSnapshot(rounds=rounds_used, halted=engine.halted_count,
                               total=total, newly_halted=engine.drain_fresh(),
                               final=True, state=state)
        return RunResult(outputs=outputs, rounds=rounds_used,
                         metrics=run_metrics,
                         completed=engine.halted_count == total)

    # ------------------------------------------------------------------
    def _collect(self, ctx: NodeContext, in_flight: List[tuple]) -> None:
        """Drain ``ctx``'s outbox into ``in_flight``, metering as we go.

        Accounting is batched: counters are accumulated in locals and
        written to :class:`NetworkMetrics` once per drain, and payload
        bit-costs come from the per-network memo cache.  Envelope objects
        are only materialised when a trace hook is installed.
        """

        outbox = ctx.drain_outbox()
        metrics = self.metrics
        cache = self._bits_cache
        cache_limit = self._bits_cache_limit
        congest = self.model == CONGEST
        bandwidth = self.bandwidth
        trace = self.trace
        src = ctx.node
        count = 0
        total_bits = 0
        max_bits = 0
        for dst, payload in outbox.items():
            bits = cache.get(payload)
            if bits is None:
                bits = payload_bits(payload)
                if len(cache) >= cache_limit:
                    # FIFO eviction over dict insertion order: drop the
                    # oldest payload so fresh traffic keeps caching.
                    del cache[next(iter(cache))]
                cache[payload] = bits
            count += 1
            total_bits += bits
            if bits > max_bits:
                max_bits = bits
            if congest and bits > bandwidth:
                if self.strict:
                    raise BandwidthViolation(src, dst, bits, bandwidth)
                metrics.violations += 1
            if trace is not None:
                trace(ctx.round, Envelope(src=src, dst=dst, payload=payload))
            in_flight.append((src, dst, payload))
        metrics.messages += count
        metrics.bits += total_bits
        if max_bits > metrics.max_bits_per_edge_round:
            metrics.max_bits_per_edge_round = max_bits
        if max_bits > self._run_max_bits:
            self._run_max_bits = max_bits


def live_entry(rng, program_state: dict) -> dict:
    """One live node's entry in a checkpoint payload's ``live`` map.

    The only writer of the layout both engines restore: the node's RNG
    state and its program's ``export_state``.  ``rng=None`` marks a
    fresh entry (the dynamic-graph compat policy splices these in),
    which keeps the node's stable per-node stream on resume.
    """

    return {"sleeping": False,
            "rng": None if rng is None else rng_state(rng),
            "program": program_state}


class _ObjectEngine:
    """The reference engine: one :class:`NodeProgram` object per node.

    It exposes the step-able interface :meth:`SynchronousNetwork._drive`
    drives (the array kernels expose the same one).  Nothing is built
    before :meth:`bind` pins the protocol index — the run stays lazy.
    Every node that has not halted is runnable, in graph order; mail
    sent in round ``r`` sits in ``in_flight`` until it is delivered at
    the start of round ``r + 1``.
    """

    def __init__(self, net: SynchronousNetwork,
                 program_factory: Callable[[Hashable], NodeProgram]):
        self.net = net
        self.nodes = list(net.graph.nodes)
        self.total = len(self.nodes)
        self.halted_count = 0
        self.tracking = False
        self.in_flight: List[tuple] = []
        self._factory = program_factory
        self._fresh: List[tuple] = []  # (node, output) since last drain
        self._touched: List[NodeContext] = []  # inboxes holding mail

    def bind(self, proto: int) -> None:
        """Build every node's context (RNG stream ``proto``) and program."""

        net = self.net
        adjacency = net._adjacency
        factory = self._factory
        self._contexts: Dict[Hashable, NodeContext] = {}
        self._pairs: List[tuple] = []  # (ctx, program), graph order
        for node in self.nodes:
            ctx = NodeContext(
                node=node,
                neighbors=adjacency[node],
                rng=stable_rng(net.seed, node, proto),
                n=net._n,
            )
            self._contexts[node] = ctx
            self._pairs.append((ctx, factory(node)))

    def start(self) -> None:
        collect = self.net._collect
        self._runnable = []
        for ctx, program in self._pairs:
            program.on_start(ctx)
            if ctx._outbox:
                collect(ctx, self.in_flight)
            if ctx._halted:
                self._halt(ctx)
            else:
                self._runnable.append((ctx, program))

    def restore(self, state: dict) -> None:
        halted_outputs = state["halted"]
        live_states = state["live"]
        self._runnable = []
        for ctx, program in self._pairs:
            if ctx.node in halted_outputs:
                ctx._halted = True
                ctx.output = halted_outputs[ctx.node]
                self.halted_count += 1
                continue
            entry = live_states.get(ctx.node)
            if entry is None:
                raise SimulationError(
                    f"resume state knows nothing about node {ctx.node!r}"
                )
            if entry["sleeping"]:
                raise SimulationError(
                    f"resume state parks node {ctx.node!r} asleep; the "
                    f"simulator steps every live node every round"
                )
            # A ``None`` RNG marks a *fresh* entry (spliced in by the
            # dynamic-graph compat policy): the node keeps the stable
            # per-node stream it was built with, exactly as on a fresh
            # run, so both backends derive identically.
            restore_rng(ctx.rng, entry["rng"])
            program.restore_state(entry["program"])
            self._runnable.append((ctx, program))
        self.in_flight = [tuple(message) for message in state["in_flight"]]
        programs = {ctx.node: program for ctx, program in self._pairs}
        for _src, dst, payload in self.in_flight:
            tags = getattr(programs.get(dst), "TAGS", None)
            tag = payload[0] if payload else None
            if tags is not None and tag not in tags:
                raise SimulationError(
                    f"resume state carries a {tag!r} message for node "
                    f"{dst!r}, whose program sends only {sorted(tags)}"
                )

    def _halt(self, ctx: NodeContext) -> None:
        self.halted_count += 1
        if self.tracking:
            self._fresh.append((ctx.node, ctx.output))

    def step(self, round_index: int) -> None:
        """Deliver last round's mail and step every runnable node."""

        contexts = self._contexts
        for ctx in self._touched:
            ctx.inbox.clear()
        touched = self._touched = []
        for src, dst, payload in self.in_flight:
            ctx = contexts[dst]
            if ctx._halted:
                continue
            inbox = ctx.inbox
            if not inbox:
                touched.append(ctx)
            inbox[src] = payload

        in_flight = self.in_flight = []
        collect = self.net._collect
        still_runnable: List[tuple] = []
        for entry in self._runnable:
            ctx, program = entry
            ctx.round = round_index
            program.on_round(ctx)
            if ctx._outbox:
                collect(ctx, in_flight)
            if ctx._halted:
                self._halt(ctx)
            else:
                still_runnable.append(entry)
        self._runnable = still_runnable

    def drain_fresh(self) -> tuple:
        fresh = tuple(self._fresh)
        self._fresh.clear()
        return fresh

    def pending_nodes(self) -> tuple:
        return tuple(ctx.node for ctx, _ in self._pairs if not ctx._halted)

    def outputs(self) -> Dict[Hashable, object]:
        return {ctx.node: ctx.output for ctx, _ in self._pairs}

    def export_in_flight(self) -> List[list]:
        return [list(message) for message in self.in_flight]

    def export_halted(self) -> Dict[Hashable, object]:
        return {ctx.node: ctx.output for ctx, _ in self._pairs if ctx._halted}

    def export_live(self) -> Dict[Hashable, dict]:
        return {ctx.node: live_entry(ctx.rng, program.export_state())
                for ctx, program in self._pairs if not ctx._halted}
