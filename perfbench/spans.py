"""Span recorder for the benchmark's traced runs.

Spans are recorded around calls into each layer's public functions by
replacing module and class attributes in-process before a workload
runs; no file of the program under test changes.  A span records its
name, start, end, parent span and thread.  Per-name aggregates (calls,
inclusive seconds, self seconds) are kept as spans close, so metrics
never need the raw span list, which is kept in memory and written out
once at the end of the run.

Span names are ``<layer>:<qualname>`` where the layer is the module
path below ``repro`` (``api.facade``, ``congest.array_network``, ...).
A layer's self time is the sum, over its spans, of each span's
duration minus the time covered by its child spans.

Hot leaf functions (``stable_rng``) are timed as *leaves*: they add to
the aggregates and to the parent's child time but store no span.
Generators returned by a wrapped call are proxied so each resumption
is its own ``<name>.next`` span -- the work of ``solve_iter`` or
``run_stepwise`` happens there, not in the call that creates them.

Process pools fork after the wrappers are installed, so workers
inherit them.  A worker's aggregates travel back inside the report its
``solve`` returns (``SHIP_KEY`` in ``SolveReport.extras``), and the
parent merges them with :meth:`Tracer.take_shipped`.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import os
import sys
import threading
import time

_clock = time.perf_counter

#: ``SolveReport.extras`` key a forked pool worker ships its trace in.
SHIP_KEY = "_perfbench_trace"


class Tracer:
    """Span and counter store for one process."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self.pid = os.getpid()
        #: Wrappers call straight through while this is false.
        self.enabled = True
        self.reset()
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self) -> None:
        # A forked worker starts empty; the parent's records stay there.
        self._lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        """Drop everything recorded so far (the end of set-up)."""

        with self._lock:
            #: name -> [calls, inclusive seconds, self seconds]
            self.stats = {}
            self.counters = {}
            #: (id, parent id, name, start, end, thread id)
            self.spans = []
            #: span lists shipped from other processes
            self.foreign = []

    def _stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            stack = self._local.stack = []
            return stack

    def enter(self, name: str) -> list:
        stack = self._stack()
        parent = stack[-1][1] if stack else 0
        frame = [name, next(self._ids), _clock(), 0.0, parent]
        stack.append(frame)
        return frame

    def exit(self, frame: list) -> None:
        end = _clock()
        stack = self._stack()
        stack.pop()
        name, span_id, start, child, parent = frame
        duration = end - start
        if stack:
            stack[-1][3] += duration
        with self._lock:
            self._add(name, duration, duration - child)
            self.spans.append((span_id, parent, name, start, end,
                               threading.get_ident()))

    def leaf(self, name: str, start: float, end: float) -> None:
        duration = end - start
        stack = self._stack()
        if stack:
            stack[-1][3] += duration
        with self._lock:
            self._add(name, duration, duration)

    def _add(self, name: str, inclusive: float, own: float) -> None:
        entry = self.stats.get(name)
        if entry is None:
            entry = self.stats[name] = [0, 0.0, 0.0]
        entry[0] += 1
        entry[1] += inclusive
        entry[2] += own

    def count(self, name: str, value: float = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + value

    # -- cross-process ---------------------------------------------------
    def export(self) -> dict:
        """Everything recorded so far, then reset (a worker's shipment)."""

        with self._lock:
            out = {"pid": os.getpid(), "stats": self.stats,
                   "counters": self.counters, "spans": self.spans}
        self.reset()
        return out

    def merge(self, shipment: dict) -> None:
        with self._lock:
            for name, (calls, inclusive, own) in shipment["stats"].items():
                entry = self.stats.setdefault(name, [0, 0.0, 0.0])
                entry[0] += calls
                entry[1] += inclusive
                entry[2] += own
            for name, value in shipment["counters"].items():
                self.counters[name] = self.counters.get(name, 0) + value
            self.foreign.append({"pid": shipment["pid"],
                                 "spans": shipment["spans"]})

    def take_shipped(self, reports) -> None:
        """Merge and remove the traces forked workers attached."""

        for report in reports:
            if report is not None and SHIP_KEY in report.extras:
                self.merge(report.extras.pop(SHIP_KEY))

    # -- queries ---------------------------------------------------------
    def calls(self, name: str) -> int:
        return self.stats.get(name, (0, 0.0, 0.0))[0]

    def inclusive(self, name: str) -> float:
        return self.stats.get(name, (0, 0.0, 0.0))[1]

    def self_time(self, name: str) -> float:
        return self.stats.get(name, (0, 0.0, 0.0))[2]

    def layer_self(self, layer: str) -> float:
        prefix = layer + ":"
        return sum(own for name, (_, _, own) in self.stats.items()
                   if name.startswith(prefix))

    def write(self, path: str) -> None:
        """Write spans and aggregates as one JSON document."""

        processes = [{"pid": os.getpid(), "spans": self.spans}]
        processes += self.foreign
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"stats": self.stats, "counters": self.counters,
                       "processes": processes}, handle)


# ----------------------------------------------------------------------
# wrappers
# ----------------------------------------------------------------------
def _proxy(tracer: Tracer, gen, name: str, done=None):
    """Forward ``gen``, timing every resumption as a ``name`` span."""

    send, arg = gen.send, None
    while True:
        frame = tracer.enter(name)
        try:
            item = send(arg)
        except StopIteration as stop:
            tracer.exit(frame)
            if done is not None:
                done(stop.value)
            return stop.value
        except BaseException:
            tracer.exit(frame)
            raise
        tracer.exit(frame)
        try:
            arg = yield item
            send = gen.send
        except GeneratorExit:
            frame = tracer.enter(name)
            try:
                gen.close()
            finally:
                tracer.exit(frame)
            raise
        except BaseException as exc:  # forwarded into the generator
            send, arg = gen.throw, exc


def _wrap(tracer: Tracer, fn, name: str, leaf: bool = False,
          before=None, after=None, done=None):
    """A traced stand-in for ``fn``.

    ``before(args, kwargs)`` may return replacement ``(args, kwargs)``;
    ``after(result, args)`` runs once the span has closed; ``done``
    receives the return value of a proxied generator.
    """

    if leaf:
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            start = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.leaf(name, start, _clock())
    else:
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            if before is not None:
                args, kwargs = before(args, kwargs)
            frame = tracer.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit(frame)
            if after is not None:
                after(result, args)
            if inspect.isgenerator(result):
                return _proxy(tracer, result, name + ".next", done)
            return result
    return functools.wraps(fn)(wrapper)


def patch_function(tracer: Tracer, module: str, attr: str, layer: str,
                   recursive: bool = False, **hooks) -> None:
    """Wrap ``module.attr`` in every loaded ``repro`` module that
    imported it by name.

    A recursive function keeps its home-module binding, so only calls
    from other modules are spans, not every level of the recursion.
    """

    home = sys.modules[module]
    original = vars(home)[attr]
    wrapper = _wrap(tracer, original, f"{layer}:{attr}", **hooks)
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "repro" or name.startswith("repro.")):
            continue
        if recursive and mod is home:
            continue
        if vars(mod).get(attr) is original:
            setattr(mod, attr, wrapper)


def patch_method(tracer: Tracer, cls: type, attr: str, layer: str,
                 **hooks) -> None:
    original = vars(cls)[attr]
    label = cls.__name__ if attr == "__init__" else f"{cls.__name__}.{attr}"
    setattr(cls, attr, _wrap(tracer, original, f"{layer}:{label}", **hooks))


def _counting(tracer: Tracer, fn, counter: str):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.count(counter)
        return fn(*args, **kwargs)
    return wrapper


# ----------------------------------------------------------------------
# the probes
# ----------------------------------------------------------------------
def install(tracer: Tracer, serve: bool = False) -> None:
    """Wrap the public entry points of every layer.

    Import everything first: :func:`patch_function` rebinds only names
    already imported into loaded modules.
    """

    import repro  # noqa: F401 - loads every module patched below
    import repro.congest.array_network as array_network
    from repro.api.report import SolveReport
    from repro.congest.network import SynchronousNetwork
    from repro.dynamic.compat import MutationCompat
    from repro.mpc.network import MPCNetwork

    def ship(report, _args):
        # A forked pool worker returns its trace inside the report.
        if os.getpid() != tracer.pid and isinstance(report, SolveReport):
            report.extras[SHIP_KEY] = tracer.export()

    for attr in ("solve", "solve_iter", "resume_iter", "resume"):
        patch_function(tracer, "repro.api.facade", attr, "api.facade",
                       after=ship if attr == "solve" else None)
    for attr in ("instance_fingerprint", "solve_many", "execute_indexed"):
        patch_function(tracer, "repro.api.batch", attr, "api.batch")
    patch_method(tracer, SolveReport, "certify", "api.report")

    def payload_size(result, _args):
        tracer.count("serialize.payload_bytes",
                     len(json.dumps(result, separators=(",", ":"))))

    patch_function(tracer, "repro.api.serialize", "to_jsonable",
                   "api.serialize", recursive=True, after=payload_size)
    patch_function(tracer, "repro.api.serialize", "from_jsonable",
                   "api.serialize", recursive=True)

    def object_run(args, kwargs):
        if isinstance(args[0], array_network.ArrayNetwork):
            tracer.count("kernel.fallbacks")
        return args, kwargs

    def object_messages(result):
        tracer.count("sim.messages", result.metrics.messages)

    patch_method(tracer, SynchronousNetwork, "run_stepwise",
                 "congest.network", before=object_run, done=object_messages)

    def count_programs(args, kwargs):
        factory = args[1] if len(args) > 1 else kwargs.pop("program_factory")
        counted = _counting(tracer, factory, "programs.built")
        return (args[0], counted) + tuple(args[2:]), kwargs

    patch_method(tracer, array_network.ArrayNetwork, "run_stepwise",
                 "congest.array_network", before=count_programs)
    patch_method(tracer, array_network.GraphCSR, "__init__",
                 "congest.array_network")
    for kernel in set(array_network.KERNELS.values()):
        kernel.step = _counting(tracer, kernel.step, "kernel.rounds")

    patch_function(tracer, "repro.utils", "stable_rng", "utils", leaf=True)
    for attr in ("gnp_graph", "sparse_gnp_graph"):
        patch_function(tracer, "repro.graphs.generators", attr, "graphs")
    for attr in ("assign_node_weights", "assign_edge_weights"):
        patch_function(tracer, "repro.graphs.weights", attr, "graphs")
    patch_method(tracer, MPCNetwork, "exchange", "mpc")

    patch_function(tracer, "repro.dynamic.driver", "resolve_incremental",
                   "dynamic")
    patch_method(tracer, MutationCompat, "reconcile", "dynamic")
    for attr in ("influence_region", "graphs_equal", "apply_batch",
                 "invert_batch"):
        patch_function(tracer, "repro.dynamic.mutations", attr, "dynamic")

    if serve:
        _install_serve(tracer)


def _install_serve(tracer: Tracer) -> None:
    import repro.serve.daemon  # noqa: F401
    from repro.serve.cache import ResultCache
    from repro.serve.jobs import JobManager
    from repro.serve.journal import Journal

    for attr in ("validate_spec", "spec_cache_key", "result_record"):
        patch_function(tracer, "repro.serve.protocol", attr, "serve")
    patch_method(tracer, ResultCache, "get", "serve")
    patch_method(tracer, ResultCache, "put", "serve")
    patch_method(tracer, JobManager, "submit", "serve")
    patch_method(tracer, JobManager, "_execute", "serve")

    def journal_bytes(durable, args):
        journal, record = args[0], args[1]
        if durable:
            tracer.count("journal.bytes",
                         os.path.getsize(journal.path(record["job_id"])))

    patch_method(tracer, Journal, "write", "serve", after=journal_bytes)


__all__ = ["SHIP_KEY", "Tracer", "install", "patch_function",
           "patch_method"]
