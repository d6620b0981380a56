"""One benchmark phase: set up and run a single workload, print a JSON result.

Run by ``run.py`` in a fresh interpreter per phase, so the program's
in-process caches (the per-graph CSR cache, the oracle cache, the
service's result cache) and peak RSS never leak between workloads or
between the untraced and traced phases::

    PYTHONPATH=src python3 perfbench/workloads.py --workload single_large \
        --seed 0 --seconds 20 --workdir DIR [--traced] [--smoke]

It prints one JSON line: raw timings, counts, check results and, with
``--traced``, the per-layer metrics; ``run.py`` turns them into the
benchmark's metrics.  ``--workdir`` holds the daemon's state and the
trace file.

Every input is generated here from ``--seed``; the program under test
sees only the generated graphs, instances, mutation batches and job
specs.  Each workload times its ops until ``--seconds`` have passed
(always completing at least one full rotation of distinct ops), then
checks every output outside the timed region.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import http.client
import itertools
import json
import os
import pickle
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

clock = time.perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))

#: Pool workers and server workers; ``serve_mix`` sends its jobs over
#: one connection at a time.
WORKERS = max(1, min(2, len(os.sched_getaffinity(0))))
#: Set-up repetitions per run (``setup_s`` reports their median).
SETUP_REPS = 5
MAX_WEIGHT = 4096

#: Digest of the per-op outputs of the first rotation at seed 0, per
#: (workload, smoke).  A mismatch fails the run's output check.
PINNED = {
    ("single_large", False): "8505459281689a20",
    ("single_large", True): "d15b1c3b1cf0af26",
    ("batch_grid", False): "760cf2ade38218d9",
    ("batch_grid", True): "fb62ad219323d4c9",
    ("serve_mix", False): "212aa9184330b7fa",
    ("serve_mix", True): "a4e94978bf54c916",
    ("churn_resume", False): "d19fa15137ce0124",
    ("churn_resume", True): "33c9b5594409884d",
}
PINNED_SEED = 0


# ----------------------------------------------------------------------
# inputs and checks
# ----------------------------------------------------------------------
def weighted_graph(seed: int, n: int, degree: float = 6.0):
    """Sparse G(n, degree/n) with log-uniform node and edge weights."""

    import networkx as nx
    from repro.graphs import assign_node_weights, sparse_gnp_graph

    graph = sparse_gnp_graph(n, degree / n, seed=seed)
    assign_node_weights(graph, MAX_WEIGHT, scheme="log-uniform",
                        seed=seed + 1)
    rng = random.Random(f"edge-weights:{seed}")
    top = MAX_WEIGHT.bit_length() - 1
    nx.set_edge_attributes(
        graph, {e: 2 ** rng.randint(0, top) for e in graph.edges}, "weight")
    return graph


def solution_problem(graph, report):
    """Why ``report`` is wrong on ``graph`` (``None`` when it is right).

    Independent of the program's own ``certify``: independence or
    vertex-disjointness plus the objective recomputed from weights.
    """

    solution = report.solution
    if report.problem in ("maxis", "mis"):
        for u in solution:
            if u not in graph or any(v in solution for v in graph.adj[u]):
                return f"{report.algorithm}: not an independent set at {u!r}"
        weights = [graph.nodes[u].get("weight", 1) if report.weighted else 1
                   for u in solution]
    else:
        seen = set()
        weights = []
        for edge in solution:
            u, v = tuple(edge)
            if not graph.has_edge(u, v) or u in seen or v in seen:
                return f"{report.algorithm}: not a matching at {u!r}-{v!r}"
            seen.update((u, v))
            weights.append(graph.edges[u, v].get("weight", 1)
                           if report.weighted else 1)
    if sum(weights) != report.objective:
        return f"{report.algorithm}: objective {report.objective} != " \
               f"{sum(weights)}"
    return None


def signature(report) -> list:
    """What repeated identical ops must reproduce exactly."""

    bits = report.metrics.bits if report.metrics is not None else None
    return [report.status, report.objective, report.rounds, bits]


class Outcome:
    """Timings, counts and check results of one phase."""

    def __init__(self, workload: str, seed: int, smoke: bool):
        self.key = (workload, smoke)
        self.seed = seed
        self.setup = []
        #: op kind -> seconds of each op of that kind
        self.latencies = {}
        #: op kind -> items one op of that kind completes
        self.kind_items = {}
        self.ok_items = self.ops = 0
        self.attempted = self.failed = 0
        self.busy = 0.0
        self.problems = []
        self.expected = {}
        self.first = []
        self.layers = {}

    def set_up(self, build):
        """Run ``build`` as one timed set-up and return what it built.
        Earlier garbage is collected first, untimed, so that no sample
        pays for the graphs another one left behind."""

        gc.collect()
        started = clock()
        built = build()
        self.setup.append(clock() - started)
        return built

    def time(self, kind, seconds: float, items: int = 1) -> None:
        self.latencies.setdefault(str(kind), []).append(seconds)
        self.kind_items[str(kind)] = items

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.problems) < 8:
            self.problems.append(message)

    def observe(self, key, output, first: bool) -> bool:
        """Record one op output; identical ops must agree."""

        previous = self.expected.setdefault(key, output)
        if first:
            self.first.append(output)
        if previous != output:
            self.fail(f"op {key!r} gave {output!r}, earlier {previous!r}")
            return False
        return True

    def result(self) -> dict:
        digest = hashlib.sha256(
            json.dumps(self.first, sort_keys=True).encode()).hexdigest()[:16]
        pinned = PINNED.get(self.key)
        if self.seed == PINNED_SEED and pinned is not None \
                and digest != pinned:
            self.problems.append(f"digest {digest} != pinned {pinned}")
        # Medians per op kind, so the rotation's mix of slow and fast
        # kinds cannot move the result, and a burst of interference
        # from outside shifts few samples of any one kind.
        medians = {kind: statistics.median(times)
                   for kind, times in self.latencies.items()}
        throughput = (sum(self.kind_items.values()) / sum(medians.values())
                      if medians else 0.0)
        return {
            "setup_s": self.setup, "latencies": self.latencies,
            # 0 only when every op failed, which ``correct`` reports.
            "op_s_p50": statistics.mean(medians.values()) if medians else 0.0,
            "items_per_s": throughput,
            "busy_s": self.busy,
            "attempted": self.attempted, "failed": self.failed,
            "correct": not self.problems and self.failed == 0,
            "problems": self.problems, "digest": digest,
            "layers": self.layers,
        }


def run_rotation(seconds: float, rotation, run_op) -> None:
    """Cycle through ``rotation`` until ``seconds`` have passed, always
    completing the first pass (whose outputs the pinned digest covers)."""

    deadline = clock() + seconds
    for count, key in enumerate(itertools.cycle(rotation)):
        first = count < len(rotation)
        if not first and clock() >= deadline:
            return
        run_op(key, first)


# ----------------------------------------------------------------------
# single_large: repeated solve() on one large graph, array backend
# ----------------------------------------------------------------------
SINGLE_ALGORITHMS = ("maxis-layers", "maxis-coloring", "matching-proposal")


def single_large(out: Outcome, seed: int, seconds: float, smoke: bool,
                 tracer) -> None:
    from repro.api import Instance, solve

    n = 600 if smoke else 15_000
    for _ in range(SETUP_REPS):
        graph = out.set_up(lambda: weighted_graph(seed, n))
    rng = random.Random(f"single:{seed}")
    seeds = [rng.randrange(2 ** 31) for _ in range(2)]
    rotation = [(a, s) for s in seeds for a in SINGLE_ALGORITHMS]
    # One untimed solve first: it builds the graph's CSR, which every
    # later solve reuses, and warms the interpreter.
    solve(Instance(graph, seed=seeds[0], backend="array"),
          SINGLE_ALGORITHMS[0])
    layer_setup(out, tracer)

    def op(key, first):
        algorithm, instance_seed = key
        out.attempted += 1
        out.ops += 1
        started = clock()
        try:
            report = solve(Instance(graph, seed=instance_seed,
                                    backend="array"), algorithm)
        except Exception as exc:  # noqa: BLE001 - a failed op is counted
            out.fail(f"{key}: {type(exc).__name__}: {exc}")
            return
        elapsed = clock() - started
        out.time(algorithm, elapsed)
        out.busy += elapsed
        problem = solution_problem(graph, report)
        if report.status != "complete":
            problem = f"{key}: status {report.status}"
        if problem:
            out.fail(problem)
        elif out.observe(key, signature(report), first):
            out.ok_items += 1

    run_rotation(seconds, rotation, op)


# ----------------------------------------------------------------------
# batch_grid: solve_many over fresh grids on the default process pool
# ----------------------------------------------------------------------
BATCH_ALGORITHMS = ("maxis-layers", "matching-proposal")
BATCH_GRIDS = 2


def batch_grid(out: Outcome, seed: int, seconds: float, smoke: bool,
               tracer) -> None:
    from repro.api import Instance, solve_many

    n, size = (150, 2) if smoke else (1200, 4)
    # A set-up takes about 0.1 s here, so a median of five is unsteady.
    for _ in range(3 * SETUP_REPS):
        grids = out.set_up(lambda: [
            [weighted_graph(seed * 1000 + g * size + j, n)
             for j in range(size)] for g in range(BATCH_GRIDS)])
    rng = random.Random(f"batch:{seed}")
    congest, mpc = [], []
    for graphs in grids:
        seeds = [rng.randrange(2 ** 31) for _ in graphs]
        congest.append([Instance(g, model="CONGEST", seed=s,
                                 backend="object")
                        for g, s in zip(graphs, seeds)])
        mpc.append([Instance(g, model="mpc", seed=s)
                    for g, s in zip(graphs, seeds)])
    layer_setup(out, tracer)
    busy_worker = pool_capacity = 0.0
    mpc_bits = mpc_sent = mpc_dropped = 0
    pickled = []

    def op(index, first):
        nonlocal busy_worker, pool_capacity, mpc_bits, mpc_sent, mpc_dropped
        tasks = len(congest[index]) * len(BATCH_ALGORITHMS) + len(mpc[index])
        out.attempted += tasks
        out.ops += 1
        started = clock()
        try:
            batches = [
                solve_many(congest[index], BATCH_ALGORITHMS,
                           workers=WORKERS),
                solve_many(mpc[index], "matching-proposal", workers=WORKERS),
            ]
        except Exception as exc:  # noqa: BLE001 - a failed op is counted
            out.failed += tasks - 1
            out.fail(f"grid {index}: {type(exc).__name__}: {exc}")
            return
        out.time("grid", clock() - started, tasks)
        for batch in batches:
            out.busy += batch.elapsed
            busy_worker += sum(item.seconds for item in batch.items)
            pool_capacity += batch.elapsed * batch.workers
            if tracer is not None:
                tracer.take_shipped(batch.reports)
        graphs = grids[index]
        items = batches[0].items + batches[1].items
        for position, item in enumerate(items):
            key = (index, position)
            if not item.ok:
                out.fail(f"task {key}: {item.error}")
                continue
            report = item.report
            graph = graphs[position // len(BATCH_ALGORITHMS)
                           if position < len(batches[0].items)
                           else position - len(batches[0].items)]
            problem = solution_problem(graph, report)
            if report.status != "complete":
                problem = f"task {key}: status {report.status}"
            if problem:
                out.fail(problem)
            elif out.observe(key, signature(report), first):
                out.ok_items += 1
        for item in batches[1].items:
            if item.ok:
                summary = item.report.extras["mpc"]
                mpc_bits += summary["bits_sent"]
                mpc_sent += summary["messages_sent"]
                mpc_dropped += summary["dropped_messages"]
        if first:
            for instance in congest[index]:
                for algorithm in BATCH_ALGORITHMS:
                    began = clock()
                    size_bytes = len(pickle.dumps((instance, algorithm, {})))
                    pickled.append((size_bytes, clock() - began))

    run_rotation(seconds, range(BATCH_GRIDS), op)
    out.layers.update({
        "api.batch.pickle_bytes_per_task":
            statistics.mean(b for b, _ in pickled),
        "api.batch.pickle_s_per_task": statistics.mean(s for _, s in pickled),
        "api.batch.worker_busy_frac": busy_worker / max(pool_capacity, 1e-9),
        "mpc.bits_per_op": mpc_bits / out.ops,
        "mpc.dropped_frac": mpc_dropped / max(1, mpc_sent + mpc_dropped),
    })


# ----------------------------------------------------------------------
# churn_resume: incremental re-solve over single-mutation batches
# ----------------------------------------------------------------------
def mutation_stream(graph, key: str, count: int):
    """Single-mutation batches cycling edge delete, edge insert and
    node-weight change, each valid on the graph it lands on."""

    from repro.dynamic import add_edge, remove_edge, set_node_weight

    rng = random.Random(f"churn:{key}")
    nodes = sorted(graph.nodes)
    edges = sorted(tuple(sorted(e)) for e in graph.edges)
    present = set(edges)
    top = MAX_WEIGHT.bit_length() - 1
    batches = []
    for k in range(count):
        kind = k % 3
        if kind == 0:
            u, v = edges.pop(rng.randrange(len(edges)))
            present.discard((u, v))
            mutation = remove_edge(u, v)
        elif kind == 1:
            while True:
                u, v = sorted(rng.sample(nodes, 2))
                if (u, v) not in present:
                    break
            edges.append((u, v))
            present.add((u, v))
            mutation = add_edge(u, v)
        else:
            mutation = set_node_weight(rng.choice(nodes),
                                       2 ** rng.randint(0, top))
        batches.append([mutation])
    return batches


def churn_resume(out: Outcome, seed: int, seconds: float, smoke: bool,
                 tracer) -> None:
    import repro.dynamic.driver as driver
    from repro.api import Instance
    from repro.dynamic import DynamicInstance, resolve_incremental

    n, steps = (400, 3) if smoke else (5_000, 3)
    # Distinct mutation streams, rotated: what a step costs depends on
    # where its mutation lands, so one stream would make the seed decide
    # the result.
    streams = 2 if smoke else 6
    rng = random.Random(f"churn-instance:{seed}")
    instance_seed = rng.randrange(2 ** 31)

    def setup(stream):
        def build():
            graph = weighted_graph(seed, n)
            return DynamicInstance(
                Instance(graph, seed=instance_seed, backend="array"),
                batches=mutation_stream(graph, f"{seed}:{stream}", steps))

        return out.set_up(build)

    # Step boundaries: resolve_incremental calls resume_iter once per
    # mutation batch, so one timestamp per call splits it into steps.
    stamps = []
    resume_iter = driver.resume_iter

    def stamped(*args, **kwargs):
        stamps.append(clock())
        return resume_iter(*args, **kwargs)

    driver.resume_iter = stamped
    # Every resolve_incremental run gets a fresh set-up (each version
    # must miss the per-graph caches), so the measured loop adds set-up
    # samples too.
    for _ in range(SETUP_REPS - 3):
        setup(0)
    dynamic = setup(0)
    layer_setup(out, tracer)
    region = repair = 0

    def op(stream, first):
        nonlocal dynamic, region, repair
        if dynamic is None:
            if tracer is not None:
                tracer.enabled = False
            dynamic = setup(stream)
            if tracer is not None:
                tracer.enabled = True
        out.attempted += steps
        out.ops += steps
        stamps.clear()
        started = clock()
        try:
            result = resolve_incremental(dynamic, "maxis-layers")
        except Exception as exc:  # noqa: BLE001 - a failed op is counted
            out.failed += steps - 1
            out.fail(f"churn: {type(exc).__name__}: {exc}")
            dynamic = None
            return
        ended = clock()
        out.busy += ended - started
        bounds = stamps + [ended]
        # A step's kind is its place in the stream: the first step after
        # the version-0 solve costs more than later ones of the same op.
        for position, (batch, (a, b)) in enumerate(
                zip(dynamic.batches, zip(bounds, bounds[1:]))):
            out.time(f"{position}:{batch.mutations[0].op}", b - a)
        for step in result.steps[1:]:
            report = step.report
            problem = solution_problem(dynamic.graph(step.version), report)
            if report.status != "complete":
                problem = f"step {step.version}: status {report.status}"
            if problem:
                out.fail(problem)
                continue
            output = signature(report) + [step.repair_rounds,
                                          len(step.region)]
            if out.observe((stream, step.version), output, first):
                out.ok_items += 1
            region += len(step.region)
            repair += step.repair_rounds
        dynamic = None

    run_rotation(seconds, range(streams), op)
    out.layers.update({
        "dynamic.region_frac": region / max(1, out.ok_items * n),
        "dynamic.repair_rounds_per_step": repair / max(1, out.ok_items),
    })


# ----------------------------------------------------------------------
# serve_mix: closed loop against the HTTP daemon
# ----------------------------------------------------------------------
READY = re.compile(r"listening on http://[^:]+:(\d+)")
#: The job mix, one rotation of ten: (algorithm, round budget, nodes),
#: with ``None`` marking a resubmission of an earlier job's spec.
#: Budgeted jobs stay small: their journaled resume payloads carry
#: per-node RNG state, about 7 KB a node.
SERVE_MIX = (
    ("maxis-layers", None, 60), ("matching-proposal", None, 90),
    ("maxis-layers", 3, 60), ("maxis-layers", None, 120), None,
    ("matching-proposal", None, 60), ("matching-oneeps-congest", 5, 60),
    ("maxis-layers", None, 90), ("maxis-layers", 3, 60), None,
)
PROBLEM = {"maxis-layers": "maxis", "matching-proposal": "matching",
           "matching-oneeps-congest": "matching"}


def job_kind(k: int) -> str:
    """The latency class of job ``k``: its algorithm, budget and size,
    so that the times of one class cluster around a single value."""

    kind = SERVE_MIX[k % len(SERVE_MIX)]
    if kind is None:
        return "resubmission"
    algorithm, budget, nodes = kind
    return f"{algorithm}@{budget}/{nodes}"


def job_spec(seed: int, k: int) -> dict:
    """Job ``k`` of the mix: a small complete job, a round-budgeted job
    that truncates, or a resubmission of a job at least three places
    back, which the result cache should serve.  The seed picks only the
    graphs and which earlier job is resubmitted."""

    rng = random.Random(f"serve:{seed}:{k}")
    kind = SERVE_MIX[k % len(SERVE_MIX)]
    if kind is None:
        return job_spec(seed, rng.randrange(max(1, k - 3)))
    algorithm, budget, nodes = kind
    spec = {"workload": {"problem": PROBLEM[algorithm], "nodes": nodes,
                         "seed": rng.randrange(10 ** 6)},
            "algorithm": algorithm}
    if budget is not None:
        spec["max_rounds"] = budget
    return spec


class Server:
    """The daemon, started through the benchmark's launcher."""

    def __init__(self, workdir: str, trace_path=None):
        self.state = os.path.join(workdir, f"state-{time.monotonic_ns()}")
        command = [sys.executable, os.path.join(HERE, "serve_launcher.py")]
        if trace_path:
            command += ["--trace-out", trace_path]
        command += ["serve", "--port", "0", "--workers", str(WORKERS),
                    "--state-dir", self.state]
        self.proc = subprocess.Popen(command, stdout=subprocess.PIPE,
                                     stderr=subprocess.DEVNULL, text=True)
        timer = threading.Timer(60.0, self.proc.kill)
        timer.start()
        try:
            line = self.proc.stdout.readline()
        finally:
            timer.cancel()
        match = READY.search(line)
        if match is None:
            self.stop()
            raise RuntimeError(f"server did not start: {line!r}")
        self.port = int(match.group(1))

    def request(self, method: str, path: str, body=None):
        conn = http.client.HTTPConnection("127.0.0.1", self.port,
                                          timeout=120)
        try:
            data = None if body is None else json.dumps(body)
            conn.request(method, path, body=data)
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        shutil.rmtree(self.state, ignore_errors=True)


def serve_mix(out: Outcome, seed: int, seconds: float, smoke: bool,
              tracer, workdir: str) -> None:
    from repro.api import solve
    from repro.api.persist import instance_from_workload
    from repro.serve.protocol import canonical_json, result_record

    for _ in range(SETUP_REPS - 1):
        out.set_up(lambda: Server(workdir).stop())
    trace_path = None
    if tracer is not None:
        trace_path = os.path.join(workdir, "server-trace.json")
    server = out.set_up(lambda: Server(workdir, trace_path))

    prefix = 6 if smoke else 24
    # The first rotation is run and checked but not timed: the daemon's
    # first solves import and warm what every later job reuses.
    warmup = 0 if smoke else len(SERVE_MIX)
    records = {}
    deadline = clock() + seconds
    # One client on one connection at a time: concurrent jobs would
    # share the daemon's interpreter lock, and each job's time would
    # depend on what ran beside it.
    began = clock()
    try:
        for k in itertools.count():
            if k >= prefix and clock() >= deadline:
                break
            spec = job_spec(seed, k)
            started = clock()
            try:
                status, body = server.request("POST", "/jobs", spec)
                if status != 201:
                    raise RuntimeError(f"POST /jobs -> {status}: {body!r}")
                job_id = json.loads(body)["id"]
                status, body = server.request("GET", f"/jobs/{job_id}/stream")
                record = json.loads(body.splitlines()[-1])
                if record["status"] in ("queued", "running"):
                    # The stream can close on the job turning terminal
                    # without sending that record; read it directly.
                    status, body = server.request("GET", f"/jobs/{job_id}")
                    record = json.loads(body)
            except Exception as exc:  # noqa: BLE001 - counted as failed
                records[k] = (spec, None, f"{type(exc).__name__}: {exc}")
                continue
            if k >= warmup:
                out.time(job_kind(k), clock() - started)
            records[k] = (spec, record, None)
        out.busy = clock() - began
        jobs = [t for times in out.latencies.values() for t in times]
        if len(jobs) > 1:
            out.layers["serve.job_ms_p95"] = (
                1000.0 * statistics.quantiles(jobs, n=20)[-1])
        _, stats = server.request("GET", "/stats")
        stats = json.loads(stats)
    finally:
        server.stop()

    direct = {}
    for k in sorted(records):
        spec, record, error = records[k]
        out.attempted += 1
        out.ops += 1
        if error is not None:
            out.fail(f"job {k}: {error}")
            continue
        canonical = record["spec"]
        key = canonical_json(canonical)
        if key not in direct:
            instance = instance_from_workload(
                canonical["workload"], max_rounds=canonical["max_rounds"])
            report = solve(instance, canonical["algorithm"],
                           problem=canonical["workload"]["problem"],
                           **canonical["options"])
            direct[key] = canonical_json(result_record(report))
        expected = "truncated" if "max_rounds" in spec else "complete"
        result = record.get("result")
        if record["status"] != expected or result is None:
            out.fail(f"job {k}: status {record['status']}, "
                     f"expected {expected}")
        elif canonical_json(result) != direct[key]:
            out.fail(f"job {k}: record differs from a direct solve")
        else:
            out.ok_items += 1
            if k < prefix:
                out.first.append(direct[key])
    cache = stats["cache"]
    out.layers.update({
        "serve.cache.hit_rate":
            cache["hits"] / max(1, cache["hits"] + cache["misses"]),
        "serve.server_ms_p50": stats["latency"]["p50_ms"],
    })
    if tracer is not None:
        with open(trace_path, encoding="utf-8") as handle:
            tracer.merge(json.load(handle))


# ----------------------------------------------------------------------
# per-layer metrics
# ----------------------------------------------------------------------
def layer_setup(out: Outcome, tracer) -> None:
    """Attribute set-up graph building, then start the measured window."""

    if tracer is None:
        return
    built = sum(entry[1] for name, entry in tracer.stats.items()
                if name.startswith("graphs:"))
    out.layers["graphs.build_s"] = built / max(1, len(out.setup))
    tracer.reset()


def layer_metrics(out: Outcome, tracer) -> dict:
    """Every per-layer metric, 0 where the layer sat idle."""

    ops = max(1, out.ops)
    busy = max(out.busy, 1e-9)
    fingerprint = "api.batch:instance_fingerprint"
    kernel_s = tracer.self_time("congest.array_network:"
                                "ArrayNetwork.run_stepwise.next")
    sim_s = (tracer.self_time("congest.network:"
                              "SynchronousNetwork.run_stepwise")
             + tracer.self_time("congest.network:"
                                "SynchronousNetwork.run_stepwise.next"))
    counter = tracer.counters.get
    metrics = {
        "graphs.build_s": 0.0,
        "graphs.self_s_per_op": tracer.layer_self("graphs") / ops,
        "api.facade.self_s_per_op": tracer.layer_self("api.facade") / ops,
        "api.batch.self_s_per_op": tracer.layer_self("api.batch") / ops,
        "api.batch.fingerprint.calls_per_op":
            tracer.calls(fingerprint) / ops,
        "api.batch.fingerprint.self_s_per_op":
            tracer.self_time(fingerprint) / ops,
        "api.batch.fingerprint.share": tracer.self_time(fingerprint) / busy,
        "api.batch.pickle_bytes_per_task": 0.0,
        "api.batch.pickle_s_per_task": 0.0,
        "api.batch.worker_busy_frac": 0.0,
        "api.report.certify.self_s_per_op":
            tracer.layer_self("api.report") / ops,
        "api.serialize.to_jsonable_s_per_op":
            tracer.inclusive("api.serialize:to_jsonable") / ops,
        "api.serialize.from_jsonable_s_per_op":
            tracer.inclusive("api.serialize:from_jsonable") / ops,
        "api.serialize.payload_bytes_per_op":
            counter("serialize.payload_bytes", 0) / ops,
        "congest.network.sim.self_s_per_op": sim_s / ops,
        "congest.network.sim.messages_per_s":
            counter("sim.messages", 0) / sim_s if sim_s else 0.0,
        "congest.array_network.self_s_per_op":
            tracer.layer_self("congest.array_network") / ops,
        "congest.array_network.csr.builds_per_op":
            tracer.calls("congest.array_network:GraphCSR") / ops,
        "congest.array_network.csr.build_s_per_op":
            tracer.inclusive("congest.array_network:GraphCSR") / ops,
        "congest.array_network.kernel.self_s_per_op": kernel_s / ops,
        "congest.array_network.kernel.rounds_per_s":
            counter("kernel.rounds", 0) / kernel_s if kernel_s else 0.0,
        "congest.array_network.kernel.fallbacks_per_op":
            counter("kernel.fallbacks", 0) / ops,
        "congest.array_network.programs.built_per_op":
            counter("programs.built", 0) / ops,
        "utils.rng.streams_per_op": tracer.calls("utils:stable_rng") / ops,
        "utils.rng.self_s_per_op": tracer.layer_self("utils") / ops,
        "mpc.exchange_s_per_op":
            tracer.inclusive("mpc:MPCNetwork.exchange") / ops,
        "mpc.bits_per_op": 0.0,
        "mpc.dropped_frac": 0.0,
        "dynamic.self_s_per_op": tracer.layer_self("dynamic") / ops,
        "dynamic.reconcile_s_per_step":
            tracer.inclusive("dynamic:MutationCompat.reconcile") / ops,
        "dynamic.influence_region_calls_per_step":
            tracer.calls("dynamic:influence_region") / ops,
        "dynamic.graphs_equal_s_per_step":
            tracer.inclusive("dynamic:graphs_equal") / ops,
        "dynamic.region_frac": 0.0,
        "dynamic.repair_rounds_per_step": 0.0,
        "serve.self_s_per_op": tracer.layer_self("serve") / ops,
        "serve.validate_s_per_job":
            tracer.inclusive("serve:validate_spec") / ops,
        "serve.cache_key_s_per_job":
            tracer.inclusive("serve:spec_cache_key") / ops,
        "serve.cache.hit_rate": 0.0,
        "serve.journal.writes_per_job": tracer.calls("serve:Journal.write")
        / ops,
        "serve.journal.write_s_per_job":
            tracer.inclusive("serve:Journal.write") / ops,
        "serve.journal.bytes_per_job": counter("journal.bytes", 0) / ops,
        "serve.server_ms_p50": 0.0,
        "serve.job_ms_p95": 0.0,
    }
    for name, value in out.layers.items():
        if name in metrics:
            metrics[name] = value
    return metrics


WORKLOADS = {
    "single_large": single_large,
    "batch_grid": batch_grid,
    "serve_mix": serve_mix,
    "churn_resume": churn_resume,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    tracer = None
    if args.traced:
        from spans import Tracer, install

        tracer = Tracer()
        if args.workload != "serve_mix":
            # serve_mix traces the daemon, not its client.
            install(tracer)
    out = Outcome(args.workload, args.seed, args.smoke)
    run = WORKLOADS[args.workload]
    if args.workload == "serve_mix":
        run(out, args.seed, args.seconds, args.smoke, tracer, args.workdir)
    else:
        run(out, args.seed, args.seconds, args.smoke, tracer)
    result = out.result()
    if tracer is not None:
        result["layers"] = layer_metrics(out, tracer)
        tracer.write(os.path.join(args.workdir, "trace.json"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
