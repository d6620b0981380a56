"""Synchronous message-passing network simulator (LOCAL / CONGEST).

The simulator executes a :class:`~repro.congest.node.NodeProgram` on every
participating node of a graph in lockstep rounds, delivering each round's
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
from typing import Callable, Dict, Hashable, Iterable, List, Optional

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
    """Counters accumulated over one or more protocol executions.

    ``payload_cache`` holds ``round_breakdown``-style diagnostic
    counters for the simulator's payload bit-accounting memo cache
    (``hits`` / ``misses`` / ``evictions``); it is diagnostic-only and
    deliberately excluded from artifact snapshots.
    """

    rounds: int = 0
    messages: int = 0
    bits: int = 0
    max_bits_per_edge_round: int = 0
    violations: int = 0
    round_breakdown: Dict[str, int] = field(default_factory=dict)
    payload_cache: Dict[str, int] = field(default_factory=dict)

    def charge_rounds(self, rounds: int, label: str = "protocol") -> None:
        self.rounds += rounds
        self.round_breakdown[label] = self.round_breakdown.get(label, 0) + rounds

    def cache_hit_rate(self) -> float:
        """Fraction of payload bit-cost lookups served from the cache."""

        hits = self.payload_cache.get("hits", 0)
        misses = self.payload_cache.get("misses", 0)
        total = hits + misses
        return hits / total if total else 0.0

    def merge(self, other: "NetworkMetrics") -> None:
        self.rounds += other.rounds
        self.messages += other.messages
        self.bits += other.bits
        self.max_bits_per_edge_round = max(
            self.max_bits_per_edge_round, other.max_bits_per_edge_round
        )
        self.violations += other.violations
        for label, rounds in other.round_breakdown.items():
            self.round_breakdown[label] = (
                self.round_breakdown.get(label, 0) + rounds
            )
        for key, count in other.payload_cache.items():
            self.payload_cache[key] = self.payload_cache.get(key, 0) + count


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
    double counting.  ``completed`` is false when the run ended by
    quiescence with participants still unhalted.
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
        if model not in (LOCAL, CONGEST):
            raise ValueError(f"unknown model {model!r}")
        self.graph = graph
        self.model = model
        self.seed = seed
        self.strict = strict
        n = max(2, graph.number_of_nodes())
        self.bandwidth = bandwidth_factor * math.ceil(math.log2(n))
        self.metrics = NetworkMetrics()
        self._protocol_index = 0
        self._max_degree = max((d for _, d in graph.degree()), default=0)
        #: Adjacency computed once per network; every run() reuses it
        #: instead of re-walking the networkx structure.
        self._adjacency: Dict[Hashable, tuple] = {
            node: tuple(graph.neighbors(node)) for node in graph.nodes
        }
        self._n = graph.number_of_nodes()
        #: Payloads repeat heavily (broadcasts send one tuple to every
        #: neighbor, protocols reuse the same tags round after round), so
        #: bit-accounting is memoised per payload tuple.  The cache is
        #: shared across runs and bounded: on overflow the oldest entry
        #: is evicted (FIFO over dict insertion order) instead of the
        #: cache silently ceasing to admit new payloads.  Hit/miss/
        #: eviction counters land in ``metrics.payload_cache``.
        self._bits_cache: Dict[tuple, int] = {}
        self._bits_cache_limit = 1 << 16
        #: Largest single message of the *current* run, reset per run so
        #: RunResult.metrics can report a per-run max while the network
        #: counter keeps the cumulative max.
        self._run_max_bits = 0
        #: Optional callback ``(round_index, envelope)`` invoked for every
        #: message sent; used by the line-graph congestion auditor.
        self.trace: Optional[Callable[[int, Envelope], None]] = None
        #: Optional callback ``(round_index, active, delivered)`` invoked
        #: at the end of every round; used by ExecutionRecorder.
        self.on_round_end: Optional[Callable[[int, int, int], None]] = None

    # ------------------------------------------------------------------
    # protocol execution
    # ------------------------------------------------------------------
    def run(
        self,
        program_factory: Callable[[Hashable], NodeProgram],
        participants: Optional[Iterable[Hashable]] = None,
        max_rounds: int = 10_000,
        label: str = "protocol",
        quiescence_halts: bool = False,
        stop_on_limit: bool = False,
    ) -> RunResult:
        """Execute one protocol and accumulate its cost into ``metrics``.

        The protocol ends when every participant has halted.  If
        ``quiescence_halts`` is true it also ends after a round in which no
        messages were delivered or sent (useful for protocols whose laggards
        merely wait for notifications that will never come).  With
        ``stop_on_limit`` an exhausted ``max_rounds`` budget ends the
        run cooperatively — the partial outputs are returned with
        ``completed=False`` — instead of raising
        :class:`~repro.errors.RoundLimitExceeded`; this is the anytime
        protocol's budget interruption, and it costs nothing beyond the
        rounds actually executed.

        Scheduling is wake-list based: the round loop maintains the set
        of *runnable* programs — every non-halted node is runnable by
        default (synchronous semantics: nodes may act spontaneously),
        minus nodes that parked themselves with
        :meth:`~repro.congest.node.NodeContext.sleep` and have received
        no mail since.  A halted or sleeping node costs nothing per
        round; a running halted counter replaces the former O(n)
        per-round scans, so late protocol phases where almost every
        node has finished run in time proportional to the survivors,
        not to n.

        The returned :class:`RunResult` carries this run's private
        metrics delta; the cumulative totals keep accruing on
        ``self.metrics``.
        """

        from ..utils import drain

        return drain(self.run_stepwise(
            program_factory, participants=participants,
            max_rounds=max_rounds, label=label,
            quiescence_halts=quiescence_halts,
            stop_on_limit=stop_on_limit,
        ))

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
          (:meth:`~repro.congest.node.NodeProgram.export_state`), RNG
          state and sleep flag, plus the cumulative metric counters.
        * ``resume_state=<that dict>`` restores it: programs are built
          by the factory but ``restore_state`` replaces ``on_start``
          (no side effects re-run), round numbering and the snapshot
          cadence continue from the captured boundary, in-flight mail
          is re-delivered, and metric accounting *continues* — the
          captured counters are merged into ``self.metrics`` and only
          the continuation's rounds are charged — so a truncated run
          resumed here is bit-for-bit the run that never stopped.
          ``max_rounds`` stays a cap on the *cumulative* round count.
          The one deliberate exception is ``payload_cache``: those
          hit/miss/eviction diagnostics describe *this process's*
          memo cache (cold after a resume), so they are neither
          captured nor merged.
        """

        if checkpoint_every is not None and checkpoint_every < 1:
            raise ValueError(
                f"checkpoint_every must be >= 1, got {checkpoint_every}"
            )
        nodes = list(self.graph.nodes if participants is None else participants)
        for node in nodes:
            if node not in self.graph:
                raise SimulationError(f"participant {node} is not in the graph")

        self._protocol_index += 1
        proto = self._protocol_index
        everyone = len(nodes) == self._n

        contexts: Dict[Hashable, NodeContext] = {}
        pairs: List[tuple] = []  # (ctx, program), execution order
        adjacency = self._adjacency
        if not everyone:
            node_set = set(nodes)
        for node in nodes:
            neighbors = adjacency[node]
            if not everyone:
                neighbors = tuple(v for v in neighbors if v in node_set)
            ctx = NodeContext(
                node=node,
                neighbors=neighbors,
                rng=stable_rng(self.seed, node, proto),
                n=self._n,
                max_degree=self._max_degree,
            )
            contexts[node] = ctx
            pairs.append((ctx, program_factory(node)))

        metrics = self.metrics
        base_messages = metrics.messages
        base_bits = metrics.bits
        base_violations = metrics.violations
        base_hits = metrics.payload_cache.get("hits", 0)
        base_misses = metrics.payload_cache.get("misses", 0)
        base_evictions = metrics.payload_cache.get("evictions", 0)
        self._run_max_bits = 0

        in_flight: List[tuple] = []
        halted_count = 0
        #: Snapshot bookkeeping: only paid when checkpoints are wanted.
        tracking = checkpoint_every is not None
        fresh: List[tuple] = []  # (node, output) halted since last snapshot
        #: Runnable programs in execution (participant) order, as
        #: (position, ctx, program) so late wake-ups re-merge in order.
        runnable: List[tuple] = []
        start_round = 0
        if resume_state is None:
            for pos, (ctx, program) in enumerate(pairs):
                program.on_start(ctx)
                if ctx._outbox:
                    self._collect(ctx, in_flight)
                if ctx._halted:
                    halted_count += 1
                    if tracking:
                        fresh.append((ctx.node, ctx.output))
                elif not ctx._sleeping:
                    runnable.append((pos, ctx, program))
        else:
            start_round = resume_state["round"]
            halted_outputs = resume_state["halted"]
            live_states = resume_state["live"]
            for pos, (ctx, program) in enumerate(pairs):
                if ctx.node in halted_outputs:
                    ctx._halted = True
                    ctx.output = halted_outputs[ctx.node]
                    halted_count += 1
                    continue
                state = live_states.get(ctx.node)
                if state is None:
                    raise SimulationError(
                        f"resume state knows nothing about node {ctx.node!r}"
                    )
                # A ``None`` RNG marks a *fresh* entry (spliced in by the
                # dynamic-graph compat policy): the node keeps the
                # stable per-node stream it was built with, exactly as
                # on a fresh run, so both backends derive identically.
                restore_rng(ctx.rng, state["rng"])
                program.restore_state(state["program"])
                if state["sleeping"]:
                    ctx._sleeping = True
                else:
                    runnable.append((pos, ctx, program))
            in_flight = [tuple(message)
                         for message in resume_state["in_flight"]]
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
        #: Sleeping, non-halted programs awaiting mail.
        parked: Dict[int, tuple] = {
            id(ctx): (pos, ctx, program)
            for pos, (ctx, program) in enumerate(pairs)
            if ctx._sleeping and not ctx._halted
        }

        total = len(pairs)
        rounds_used = start_round
        touched: List[NodeContext] = []  # inboxes holding last round's mail
        for round_index in range(start_round, max_rounds):
            if halted_count == total:
                break
            if not runnable and not in_flight:
                # Everyone left is parked and no mail can ever arrive:
                # the network is deadlocked.  Quiescence ends the run —
                # counting this (empty) round, so a protocol ported to
                # sleep() reports the same round total as its busy-wait
                # twin, which executes one last quiet round before the
                # bottom-of-loop quiescence check fires.  Otherwise
                # report the sleepers without spinning through the
                # remaining rounds.
                if quiescence_halts:
                    rounds_used = round_index + 1
                    if self.on_round_end is not None:
                        self.on_round_end(round_index,
                                          total - halted_count, 0)
                    break
                raise RoundLimitExceeded(rounds_used, tuple(
                    node for node in nodes if not contexts[node].halted
                ))
            for ctx in touched:
                ctx.inbox.clear()
            touched.clear()
            delivered = 0
            woken = False
            for src, dst, payload in in_flight:
                ctx = contexts[dst]
                if ctx._halted:
                    continue
                inbox = ctx.inbox
                if not inbox:
                    touched.append(ctx)
                inbox[src] = payload
                delivered += 1
                if ctx._sleeping:
                    ctx._sleeping = False
                    runnable.append(parked.pop(id(ctx)))
                    woken = True
            if woken:
                runnable.sort()

            in_flight = []
            still_runnable: List[tuple] = []
            for entry in runnable:
                _, ctx, program = entry
                ctx.round = round_index
                program.on_round(ctx)
                if ctx._outbox:
                    self._collect(ctx, in_flight)
                if ctx._halted:
                    halted_count += 1
                    if tracking:
                        fresh.append((ctx.node, ctx.output))
                elif ctx._sleeping:
                    parked[id(ctx)] = entry
                else:
                    still_runnable.append(entry)
            runnable = still_runnable
            rounds_used = round_index + 1

            if self.on_round_end is not None:
                self.on_round_end(round_index, total - halted_count,
                                  delivered)
            if tracking and rounds_used % checkpoint_every == 0:
                yield StepSnapshot(rounds=rounds_used, halted=halted_count,
                                   total=total, newly_halted=tuple(fresh))
                fresh.clear()
            if quiescence_halts and delivered == 0 and not in_flight:
                break
        else:
            pending = tuple(
                node for node in nodes if not contexts[node].halted
            )
            if pending and not stop_on_limit:
                raise RoundLimitExceeded(max_rounds, pending)

        outputs = {node: contexts[node].output for node in nodes}
        metrics.charge_rounds(rounds_used - start_round, label)
        cache_delta = {
            key: value
            for key, value in (
                ("hits", metrics.payload_cache.get("hits", 0) - base_hits),
                ("misses",
                 metrics.payload_cache.get("misses", 0) - base_misses),
                ("evictions",
                 metrics.payload_cache.get("evictions", 0) - base_evictions),
            )
            if value
        }
        run_metrics = NetworkMetrics(
            rounds=rounds_used,
            messages=metrics.messages - base_messages,
            bits=metrics.bits - base_bits,
            max_bits_per_edge_round=self._run_max_bits,
            violations=metrics.violations - base_violations,
            round_breakdown={label: rounds_used} if rounds_used else {},
            payload_cache=cache_delta,
        )
        if tracking:
            state = None
            if capture_state:
                halted_outputs: Dict[Hashable, object] = {}
                live: Dict[Hashable, dict] = {}
                for ctx, program in pairs:
                    if ctx._halted:
                        halted_outputs[ctx.node] = ctx.output
                        continue
                    live[ctx.node] = {
                        "sleeping": ctx._sleeping,
                        "rng": rng_state(ctx.rng),
                        "program": program.export_state(),
                    }
                state = {
                    "round": rounds_used,
                    "in_flight": [list(message) for message in in_flight],
                    "halted": halted_outputs,
                    "live": live,
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
            yield StepSnapshot(rounds=rounds_used, halted=halted_count,
                               total=total, newly_halted=tuple(fresh),
                               final=True, state=state)
        return RunResult(outputs=outputs, rounds=rounds_used,
                         metrics=run_metrics,
                         completed=halted_count == total)

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
        hits = 0
        misses = 0
        evictions = 0
        for dst, payload in outbox.items():
            bits = cache.get(payload)
            if bits is None:
                misses += 1
                bits = payload_bits(payload)
                if len(cache) >= cache_limit:
                    # FIFO eviction over dict insertion order: drop the
                    # oldest payload so fresh traffic keeps caching.
                    del cache[next(iter(cache))]
                    evictions += 1
                cache[payload] = bits
            else:
                hits += 1
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
        if count:
            payload_cache = metrics.payload_cache
            payload_cache["hits"] = payload_cache.get("hits", 0) + hits
            payload_cache["misses"] = payload_cache.get("misses", 0) + misses
            if evictions:
                payload_cache["evictions"] = (
                    payload_cache.get("evictions", 0) + evictions
                )
