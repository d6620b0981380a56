"""Measurement adapters: the bridge from specs to the algorithms.

Every adapter has the uniform signature::

    fn(graph, seed, **params) -> (measures, metrics)

where ``measures`` is a flat JSON-able dict (ints, floats, strings,
lists) and ``metrics`` is the :class:`~repro.congest.NetworkMetrics`
of the simulated network when the algorithm runs through the
simulator, else ``None``.  Adapters never touch wall-clock time —
speed is measured by ``perfbench/`` — so trial records stay
bit-deterministic.

Since the :mod:`repro.api` facade landed, adapters that *run* an
algorithm are one-liners over :func:`repro.api.solve` — the shared
``_solved`` helper owns the seed/ε plumbing that used to be
copy-pasted per adapter, and the shared ``_oracle`` helper owns the
opt-in exact-optimum comparison (exponential MWIS / cubic Edmonds, so
only affordable on small instances and requested per cell via
``oracle=True``).  Only the analytic adapters (budget formulas, decay
curves, Figure-1 traversals) still reach into the library directly.
"""

from __future__ import annotations

from typing import Optional

from ..analysis import approximation_ratio
from ..api import Instance, SolveReport, solve
from ..congest import CongestionAudit
from ..core import (
    BipartiteAugmentingPhase,
    LayerTrace,
    enumerate_augmenting_paths,
    lemma_b13_rounds,
    optimal_k,
    residual_decay_series,
    theorem_2_8_simulation_cost,
    theorem_3_1_budget,
)
from ..graphs import max_degree
from ..matching import (
    bipartite_sides,
    matching_weight,
    optimum_cardinality,
    optimum_weight,
)
from ..mis import (
    GoldenRoundStats,
    nearly_maximal_is,
    nmis_plus_luby_mis,
)
from .registry import register_measurement

__all__ = ["register_measurement"]


# ----------------------------------------------------------------------
# shared facade/oracle plumbing (one copy, not one per adapter)
# ----------------------------------------------------------------------
def _solved(graph, seed, algorithm: str, eps: Optional[float] = None,
            model: Optional[str] = None, **options) -> SolveReport:
    """Run ``algorithm`` through the facade with the adapter's seed/ε.

    ``eps=None`` keeps the :class:`~repro.api.Instance` default so
    ε-oblivious algorithms are not parameterized spuriously.
    """

    kwargs = {} if eps is None else {"eps": eps}
    return solve(Instance(graph, model=model, seed=seed, **kwargs),
                 algorithm, **options)


def _oracle(measures: dict, report: SolveReport, opt_key: str = "optimum",
            ratio_key: Optional[str] = "ratio",
            ok_key: Optional[str] = None) -> dict:
    """Attach the exact-optimum comparison under the adapter's key names."""

    comparison = report.compare()
    measures[opt_key] = comparison["optimum"]
    if ratio_key is not None:
        measures[ratio_key] = comparison["ratio"]
    if ok_key is not None:
        measures[ok_key] = comparison["within_bound"]
    return measures


# ----------------------------------------------------------------------
# MaxIS (Algorithms 2 and 3)
# ----------------------------------------------------------------------
@register_measurement("maxis_layers")
def _maxis_layers(graph, seed, oracle=False, trace=False):
    """Algorithm 2 (local-ratio by weight layers) on the simulator."""

    layer_trace = LayerTrace() if trace else None
    report = _solved(graph, seed, "maxis-layers", trace=layer_trace)
    measures = {
        "rounds": report.rounds,
        "size": report.size,
        "weight": report.objective,
        "delta": max_degree(graph),
    }
    if trace:
        series = layer_trace.top_layer_series()
        measures["top_layer_series"] = list(series)
        measures["phases"] = len(series)
        measures["layer_drops"] = sum(
            1 for a, b in zip(series, series[1:]) if b < a
        )
        measures["initial_top"] = series[0] if series else 0
    if oracle:
        _oracle(measures, report)
    return measures, report.metrics


@register_measurement("maxis_coloring")
def _maxis_coloring(graph, seed, oracle=False, check_deterministic=False):
    """Algorithm 3 (local-ratio by coloring); ``seed`` is unused (it is
    deterministic) but kept for the uniform signature."""

    report = _solved(graph, seed, "maxis-coloring")
    measures = {
        "lr_rounds": report.extras["local_ratio_rounds"],
        "accounted": report.extras["accounted_rounds"],
        "size": report.size,
        "weight": report.objective,
        "delta": max_degree(graph),
    }
    if check_deterministic:
        again = _solved(graph, 0, "maxis-coloring")
        measures["deterministic"] = (again.solution == report.solution)
    if oracle:
        _oracle(measures, report)
    return measures, report.metrics


# ----------------------------------------------------------------------
# Matching pipelines
# ----------------------------------------------------------------------
@register_measurement("matching_lines")
def _matching_lines(graph, seed, method="layers", oracle=False, audit=False):
    """2-approx MWM via MaxIS on the line graph (Theorem 2.10)."""

    congestion = CongestionAudit() if audit else None
    report = _solved(graph, seed, "matching-lines", method=method,
                     audit=congestion)
    measures = {
        "rounds": report.rounds,
        "size": report.size,
        "weight": report.objective,
        "delta": max_degree(graph),
    }
    if audit:
        measures["naive_max"] = congestion.max_naive_load()
        measures["aggregated_max"] = congestion.max_aggregated_load()
    if oracle:
        _oracle(measures, report)
    return measures, None


@register_measurement("fast2eps")
def _fast2eps(graph, seed, eps=0.5, k=None, oracle=False):
    """(2+ε)-approx MCM (Theorem 3.2)."""

    report = _solved(graph, seed, "matching-fast2eps", eps=eps, k=k)
    measures = {
        "rounds": report.rounds,
        "size": report.size,
        "delta": max_degree(graph),
    }
    if oracle:
        _oracle(measures, report)
    return measures, None


@register_measurement("fast2eps_weighted")
def _fast2eps_weighted(graph, seed, eps=0.5, beta_bucket=None, oracle=False):
    """(2+ε)-approx MWM (Appendix B.1 pipeline)."""

    report = _solved(graph, seed, "matching-fast2eps-weighted", eps=eps,
                     beta_bucket=beta_bucket)
    measures = {
        "rounds": report.rounds,
        "size": report.size,
        "weight": report.objective,
    }
    if oracle:
        _oracle(measures, report)
    return measures, None


@register_measurement("oneeps_local")
def _oneeps_local(graph, seed, eps=0.5, oracle=False):
    """(1+ε)-approx MCM, LOCAL model (Theorem B.4)."""

    report = _solved(graph, seed, "matching-oneeps", eps=eps)
    measures = {
        "rounds": report.rounds,
        "found": report.objective,
        "deactivated": len(report.extras["deactivated"]),
    }
    if oracle:
        _oracle(measures, report, opt_key="opt", ratio_key=None)
    return measures, None


@register_measurement("oneeps_congest")
def _oneeps_congest(graph, seed, eps=0.5, oracle=False):
    """(1+ε)-approx MCM, CONGEST model (Theorem B.7)."""

    report = _solved(graph, seed, "matching-oneeps-congest", eps=eps)
    measures = {
        "rounds": report.rounds,
        "found": report.objective,
        "deactivated": len(report.extras["deactivated"]),
        "stages": report.extras["stages"],
    }
    if oracle:
        _oracle(measures, report, opt_key="opt", ratio_key=None)
    return measures, None


# ----------------------------------------------------------------------
# Proposal matching (Appendix B.4)
# ----------------------------------------------------------------------
@register_measurement("proposal_bipartite")
def _proposal_bipartite(graph, seed, phases=None):
    """Lemma B.13 proposal rounds on a bipartite instance."""

    left, _right = bipartite_sides(graph)
    # eps matches the bipartite_proposal_phases default (0.25):
    # it sizes the k/phase budget when the grid omits `phases`.
    report = _solved(graph, seed, "matching-proposal-bipartite", eps=0.25,
                     phases=phases)
    return {
        "matched": report.size,
        "unlucky_left": len(report.extras["unlucky"] & left),
        "left_size": len(left),
    }, report.metrics


@register_measurement("proposal_general")
def _proposal_general(graph, seed, eps=0.25, oracle=False):
    """Lemma B.14 general-graph wrapper."""

    report = _solved(graph, seed, "matching-proposal", eps=eps)
    measures = {"found": report.size, "rounds": report.rounds}
    if oracle:
        _oracle(measures, report, opt_key="opt", ratio_key=None,
                ok_key="ok")
    return measures, None


@register_measurement("proposal_budget")
def _proposal_budget(graph, seed, delta=8, eps=0.25):
    """Analytic Lemma B.13 phase budgets (no simulation)."""

    k_star = optimal_k(delta, eps)
    return {
        "k_star": k_star,
        "budget_k2": lemma_b13_rounds(delta, eps, 2),
        "budget_kstar": lemma_b13_rounds(delta, eps, k_star),
    }, None


# ----------------------------------------------------------------------
# MIS engines and NMIS decay (Section 3)
# ----------------------------------------------------------------------
@register_measurement("mis_engines")
def _mis_engines(graph, seed):
    """Luby vs the NMIS+Luby composite on the same instance/seed."""

    luby = _solved(graph, seed, "mis-luby")
    _, composite_rounds = nmis_plus_luby_mis(graph, seed=seed)
    return {
        "luby_rounds": luby.rounds,
        "composite_rounds": composite_rounds,
    }, luby.metrics


@register_measurement("residual_decay")
def _residual_decay(graph, seed, k=2, max_iterations=14, num_seeds=4):
    """Theorem 3.1 residual-mass decay curve (mean over seeds)."""

    series = residual_decay_series(
        graph, k=k, max_iterations=max_iterations,
        seeds=range(seed, seed + num_seeds),
    )
    return {"series": [float(x) for x in series]}, None


@register_measurement("golden_rounds")
def _golden_rounds(graph, seed, iterations=25, k=2):
    """Lemma B.1/B.2 golden-round occurrence statistics."""

    stats = GoldenRoundStats()
    nearly_maximal_is(graph, iterations=iterations, k=k, seed=seed,
                      stats=stats)
    return {
        "type1_nodes": len(stats.type1),
        "type2_nodes": len(stats.type2),
        "type1_total": sum(stats.type1.values()),
        "type2_total": sum(stats.type2.values()),
    }, None


@register_measurement("nmis_budget_residual")
def _nmis_budget_residual(graph, seed, delta=6, k=2.0, failure_delta=0.05,
                          num_seeds=5):
    """Residual rate after running for the Theorem 3.1 budget."""

    budget = theorem_3_1_budget(delta, k, failure_delta)
    residuals = 0
    total = 0
    for s in range(seed, seed + num_seeds):
        _, residual, _ = nearly_maximal_is(graph, iterations=budget,
                                           k=int(k), seed=s)
        residuals += len(residual)
        total += graph.number_of_nodes()
    return {
        "budget": budget,
        "failure_delta": failure_delta,
        "rate": residuals / total,
    }, None


# ----------------------------------------------------------------------
# Anytime budget curves (the `budgets` experiment)
# ----------------------------------------------------------------------
@register_measurement("budget_curve")
def _budget_curve(graph, seed, algorithm="maxis-layers", budget=None,
                  eps=None, model=None, oracle=False,
                  bandwidth_factor=None):
    """One budgeted anytime solve: a point on the quality-vs-rounds curve.

    ``budget`` is forwarded as ``Instance.max_rounds`` (``None`` = run
    to completion); the measures record the partial/full objective,
    the rounds actually consumed, and the ``status`` so the checks can
    assert the anytime contract — truncated runs fit the budget, more
    budget never hurts, and the unbounded run completes.

    ``bandwidth_factor`` sweeps the CONGEST per-edge word width
    (``Instance.bandwidth_factor``, simulator default 8): bandwidth
    metering is observational, so the execution — objective, rounds,
    bits — is invariant along this axis while the recorded
    ``violations`` count falls as the word widens (the bandwidth
    checks in the ``budgets`` experiment pin exactly that).
    """

    kwargs = {} if eps is None else {"eps": eps}
    if bandwidth_factor is not None:
        kwargs["bandwidth_factor"] = bandwidth_factor
    report = solve(
        Instance(graph, model=model, seed=seed, max_rounds=budget,
                 **kwargs),
        algorithm,
    )
    measures = {
        "objective": report.objective,
        "size": report.size,
        "rounds": report.rounds,
        "status": report.status,
        "complete": report.status == "complete",
        "violations": (report.metrics.violations
                       if report.metrics is not None else None),
    }
    if oracle:
        _oracle(measures, report, ratio_key=None)
    return measures, report.metrics


# ----------------------------------------------------------------------
# Congestion accounting (Theorem 2.8) and baselines
# ----------------------------------------------------------------------
@register_measurement("t28_cost")
def _t28_cost(graph, seed):
    """Analytic per-edge load of one line-graph round (Theorem 2.8)."""

    cost = theorem_2_8_simulation_cost(graph)
    return {
        "delta": max_degree(graph),
        "naive_max": cost.naive_max_load,
        "aggregated_max": cost.aggregated_max_load,
        "naive_total": cost.naive_total,
        "aggregated_total": cost.aggregated_total,
    }, None


@register_measurement("weighted_matchers")
def _weighted_matchers(graph, seed, eps=0.5):
    """Ours vs maximal/greedy baselines on one weighted instance."""

    opt = optimum_weight(graph)
    local_ratio = _solved(graph, seed, "matching-lines")
    fast = _solved(graph, seed, "matching-fast2eps-weighted", eps=eps)
    maximal = _solved(graph, seed, "matching-israeli-itai")
    greedy = _solved(graph, seed, "matching-greedy")
    return {
        "lr2_ratio": approximation_ratio(opt, local_ratio.objective),
        "fast2eps_ratio": approximation_ratio(opt, fast.objective),
        "maximal_ratio": approximation_ratio(
            opt, matching_weight(graph, maximal.solution)),
        "greedy_ratio": approximation_ratio(opt, greedy.objective),
    }, None


@register_measurement("lines_vs_groups")
def _lines_vs_groups(graph, seed):
    """L(G) formulation vs footnote-5 weight groups on one instance."""

    opt = optimum_weight(graph)
    via_lines = _solved(graph, seed, "matching-lines")
    direct = _solved(graph, seed, "matching-groups")
    return {
        "lines_ratio": approximation_ratio(opt, via_lines.objective),
        "lines_rounds": via_lines.rounds,
        "groups_ratio": approximation_ratio(opt, direct.objective),
        "groups_rounds": direct.rounds,
    }, None


@register_measurement("fast_vs_maximal_rounds")
def _fast_vs_maximal_rounds(graph, seed, eps=0.5, num_seeds=3):
    """Round scaling of fast (2+ε) vs the Israeli–Itai baseline."""

    opt = optimum_cardinality(graph)
    fast_rounds = []
    ratios = []
    for s in range(seed, seed + num_seeds):
        fast = _solved(graph, s, "matching-fast2eps", eps=eps)
        fast_rounds.append(fast.rounds)
        ratios.append(approximation_ratio(opt, fast.objective))
    maximal = _solved(graph, seed, "matching-israeli-itai")
    return {
        "fast_rounds": sum(fast_rounds) / len(fast_rounds),
        "israeli_itai_rounds": maximal.rounds,
        "fast_ratio": max(ratios),
        "maximal_ratio": approximation_ratio(opt, maximal.size),
    }, None


# ----------------------------------------------------------------------
# Figure 1 (Claims B.5/B.6 traversals)
# ----------------------------------------------------------------------
def _greedy_matching_sorted(graph):
    matching, used = set(), set()
    for u, v in sorted(graph.edges, key=repr):
        if u not in used and v not in used:
            matching.add(frozenset((u, v)))
            used |= {u, v}
    return matching


@register_measurement("figure1_counts")
def _figure1_counts(graph, seed, greedy_matching=False):
    """Forward/backward augmenting-path counts vs brute force.

    The matching comes from the graph attribute ``matching`` (the
    curated Figure 1 instance) or — with ``greedy_matching`` — from a
    deterministic greedy pass, so length-3 paths are the shortest.
    """

    a_side, b_side = bipartite_sides(graph)
    if greedy_matching:
        matching = _greedy_matching_sorted(graph)
    else:
        matching = {frozenset(pair) for pair in graph.graph["matching"]}
    phase = BipartiteAugmentingPhase(graph, a_side, b_side, matching,
                                     d=3, eps=0.5, seed=seed)
    counts, contrib, raw = phase._forward(phase.scope, use_alpha=False)
    through = phase._backward(counts, contrib, raw)

    paths = enumerate_augmenting_paths(graph, matching, 3)
    end_counts = {}
    node_counts = {}
    for p in paths:
        end = p[-1] if p[-1] in b_side else p[0]
        end_counts[end] = end_counts.get(end, 0) + 1
        for v in p:
            node_counts[v] = node_counts.get(v, 0) + 1

    forward_err = max(
        (abs(counts.get(b, 0) - c) for b, c in end_counts.items()),
        default=0.0,
    )
    through_err = max(
        (abs(through.get(v, 0) - c) for v, c in node_counts.items()),
        default=0.0,
    )
    measures = {
        "paths": len(paths),
        "forward_err": float(forward_err),
        "through_err": float(through_err),
        "node_rows": [
            {
                "node": str(v),
                "forward_b5": float(counts.get(v, 0.0)),
                "through_b6": float(through.get(v, 0.0)),
                "brute_force": node_counts.get(v, 0),
            }
            for v in sorted(graph.nodes, key=str)
        ],
    }
    return measures, None


# ----------------------------------------------------------------------
# Simulator micro-benchmark (CI smoke fingerprint)
# ----------------------------------------------------------------------
@register_measurement("simulator_microbench")
def _simulator_microbench(graph, seed, model="CONGEST"):
    """One full Algorithm-2 protocol run through the simulator.

    The measures are exact simulator counters — rounds, messages,
    bits — which double as a behavioural fingerprint: any change to
    the message-passing core that alters delivery or metering shows up
    as a diff here, and the smoke gate pins them.  Wall-clock speed is
    measured by ``perfbench/``, never here.
    """

    report = _solved(graph, seed, "maxis-layers", model=model)
    return {
        "rounds": report.rounds,
        "messages": report.metrics.messages,
        "bits": report.metrics.bits,
        "max_bits_per_edge_round":
            report.metrics.max_bits_per_edge_round,
        "violations": report.metrics.violations,
        "is_weight": report.objective,
        "n": graph.number_of_nodes(),
    }, report.metrics


# ----------------------------------------------------------------------
# Fault-injection recovery adapter (the `faults` experiment — fully
# deterministic: every measure is a counter or flag, never wall-clock)
# ----------------------------------------------------------------------
def _faults_specs(seed, jobs, nodes, algorithm):
    """The scenario's job list: distinct seeds (no cache hits), round-
    budgeted so every checkpoint carries a resumable payload."""

    return [
        {
            "workload": {"problem": "maxis", "nodes": nodes,
                         "seed": seed + i},
            "algorithm": algorithm,
            "max_rounds": 1000,
        }
        for i in range(jobs)
    ]


def _faults_await(jobs, budget_s=120.0):
    import time as _time

    deadline = _time.monotonic() + budget_s
    while not all(job.done for job in jobs):
        if _time.monotonic() > deadline:
            break
        _time.sleep(0.002)


def _faults_direct(spec):
    from ..api import solve
    from ..api.persist import instance_from_workload
    from ..serve.protocol import validate_spec

    spec = validate_spec(spec)
    instance = instance_from_workload(
        spec["workload"], max_rounds=spec["max_rounds"],
    )
    return solve(instance, spec["algorithm"]).objective


@register_measurement("fault_recovery")
def _fault_recovery(graph, seed, scenario="retry", jobs=6, nodes=32,
                    algorithm="maxis-layers", rate=0.0, tmp_rate=0.0,
                    max_attempts=4, drain_budget_s=10.0):
    """One chaos drill against the in-process solver service.

    ``scenario`` picks the fault campaign; every measure is a counter,
    flag or objective total — deliberately no wall-clock values — so
    the ``faults`` experiment's artifact is byte-identical at a fixed
    seed (the CI chaos gate ``cmp``-compares it against the committed
    ``BENCH_faults.json``).  Determinism rests on the fault plane's
    scope keying: decisions are pure functions of ``(plan seed, site,
    job identity, roll index)``, so thread scheduling can reorder
    *when* a fault fires but never *whether*.

    Scenarios
    ---------
    ``retry``
        ``worker.transient`` fires at ``rate``; the bounded retry
        policy (``max_attempts``, deterministic backoff) must absorb
        the transient failures and keep every finished objective equal
        to the direct facade solve.
    ``journal``
        ``journal.write`` errors at ``rate`` (plus ``journal.tmp``
        torn temp files at ``tmp_rate``) while jobs run one at a time;
        jobs must complete regardless, then a restart on the same
        state dir — seeded with a foreign file, a torn record and a
        stale temp file — must sweep/skip the garbage and finish every
        durable record's job with the fault-free objective.
    ``drain``
        A graceful drain lands while every job is mid-solve (the
        phase delay guarantees runway); all jobs must park with
        journaled resume envelopes and a restarted manager must finish
        them bit-equal to never-interrupted runs.
    ``dispatcher``
        The dispatcher dies on its first batch; health must latch
        degraded, no job may execute, and a restart must recover and
        finish everything.
    """

    import os as _os
    import tempfile as _tempfile
    import time as _time

    from ..faults import FaultPlan, RetryPolicy
    from ..serve.jobs import JobManager

    specs = _faults_specs(seed, jobs, nodes, algorithm)
    base = {"scenario": scenario, "jobs": jobs, "n": nodes,
            "algorithm": algorithm}

    if scenario == "retry":
        plan = FaultPlan(seed=seed, sites={
            "worker.transient": {"rate": rate},
        })
        manager = JobManager(
            workers=2, fault_plan=plan,
            retry=RetryPolicy(max_attempts=max_attempts,
                              base_delay_s=0.001, seed=seed),
        )
        manager.start()
        try:
            submitted = [manager.submit(spec) for spec in specs]
            _faults_await(submitted)
            stats = manager.stats()
        finally:
            manager.shutdown(wait=True)
        complete = [job for job in submitted
                    if job.status == "complete"]
        failed = [job for job in submitted if job.status == "failed"]
        return {
            **base,
            "rate": rate,
            "max_attempts": max_attempts,
            "complete": len(complete),
            "failed": len(failed),
            "terminal": len(complete) + len(failed),
            "retries": stats["retries_total"],
            "worker_crashes": stats["health"]["worker_crashes"],
            "objective_total": sum(job.result["objective"]
                                   for job in complete),
            "direct_objective_total": sum(_faults_direct(job.spec)
                                          for job in complete),
        }, None

    if scenario == "journal":
        with _tempfile.TemporaryDirectory() as state_dir:
            sites = {"journal.write": {"rate": rate}}
            if tmp_rate:
                sites["journal.tmp"] = {"rate": tmp_rate}
            plan = FaultPlan(seed=seed, sites=sites)
            # One worker, one job in flight at a time: the journal
            # write order — and with it the consecutive-failure
            # breaker state — is fully deterministic.
            manager = JobManager(workers=1, state_dir=state_dir,
                                 fault_plan=plan)
            manager.start()
            try:
                submitted = []
                for spec in specs:
                    job = manager.submit(spec)
                    submitted.append(job)
                    _faults_await([job])
                stats = manager.stats()
            finally:
                manager.shutdown(wait=True)
            first_complete = sum(1 for job in submitted
                                 if job.status == "complete")
            objective_total = sum(
                job.result["objective"] for job in submitted
                if job.status == "complete")

            # Recovery garbage: a foreign-format file, a torn record,
            # and the stale temp file of a crashed atomic write.
            with open(_os.path.join(state_dir, "zz-foreign.json"),
                      "w", encoding="utf-8") as handle:
                handle.write('{"format": "someone-elses/1"}')
            with open(_os.path.join(state_dir, "zz-torn.json"),
                      "w", encoding="utf-8") as handle:
                handle.write('{"format": "repro-serve-job/1", "spe')
            with open(_os.path.join(state_dir,
                                    "zz-stale.json.tmp.4242"),
                      "w", encoding="utf-8") as handle:
                handle.write('{"torn": ')

            recovered = JobManager(workers=1, state_dir=state_dir)
            counts = recovered.recover()
            recovered.start()
            try:
                _faults_await(recovered.jobs())
                survivors = recovered.jobs()
                all_terminal = all(job.done for job in survivors)
                recovered_objective = sum(
                    job.result["objective"] for job in survivors
                    if job.result is not None)
                recovered_direct = sum(_faults_direct(job.spec)
                                       for job in survivors)
            finally:
                recovered.shutdown(wait=True)
        return {
            **base,
            "rate": rate,
            "tmp_rate": tmp_rate,
            "first_complete": first_complete,
            "journal_errors": stats["journal_errors"],
            "degraded": stats["health"]["state"] == "degraded",
            "restored": counts["restored"],
            "requeued": counts["requeued"],
            "skipped": counts["skipped"],
            "swept_tmp": counts["swept_tmp"],
            "recovered_terminal": all_terminal,
            "objective_total": objective_total,
            "direct_objective_total": sum(_faults_direct(spec)
                                          for spec in specs),
            "recovered_objective_total": recovered_objective,
            "recovered_direct_total": recovered_direct,
        }, None

    if scenario == "drain":
        with _tempfile.TemporaryDirectory() as state_dir:
            manager = JobManager(workers=2, state_dir=state_dir,
                                 phase_delay_s=0.05)
            manager.start()
            submitted = [manager.submit(spec) for spec in specs]
            stats = manager.drain(timeout_s=drain_budget_s)
            manager.shutdown(wait=True)
            parked = sum(1 for job in submitted if not job.done)

            recovered = JobManager(workers=2, state_dir=state_dir)
            counts = recovered.recover()
            recovered.start()
            try:
                _faults_await(recovered.jobs())
                survivors = recovered.jobs()
                objective_total = sum(
                    job.result["objective"] for job in survivors
                    if job.result is not None)
            finally:
                recovered.shutdown(wait=True)
        return {
            **base,
            "drain_budget_s": drain_budget_s,
            "parked": parked,
            "terminal_before_drain": jobs - parked,
            "drain_clean": bool(stats["clean"]),
            "requeued": counts["requeued"],
            "skipped": counts["skipped"],
            "objective_total": objective_total,
            "direct_objective_total": sum(_faults_direct(spec)
                                          for spec in specs),
        }, None

    if scenario == "dispatcher":
        plan = FaultPlan(seed=seed, sites={
            "dispatcher.death": {"after": 1},
        })
        with _tempfile.TemporaryDirectory() as state_dir:
            manager = JobManager(workers=2, state_dir=state_dir,
                                 fault_plan=plan)
            manager.start()
            submitted = [manager.submit(spec) for spec in specs]
            deadline = _time.monotonic() + 10.0
            while not manager.health.snapshot()["dispatcher_dead"]:
                if _time.monotonic() > deadline:
                    break
                _time.sleep(0.002)
            stats = manager.stats()
            manager.shutdown(wait=True)
            executed = sum(1 for job in submitted if job.done)

            recovered = JobManager(workers=2, state_dir=state_dir)
            counts = recovered.recover()
            recovered.start()
            try:
                _faults_await(recovered.jobs())
                survivors = recovered.jobs()
                complete = sum(1 for job in survivors
                               if job.status == "complete")
                objective_total = sum(
                    job.result["objective"] for job in survivors
                    if job.result is not None)
            finally:
                recovered.shutdown(wait=True)
        return {
            **base,
            "degraded": stats["health"]["state"] == "degraded",
            "dispatcher_dead": stats["health"]["dispatcher_dead"],
            "executed_before_death": executed,
            "requeued": counts["requeued"],
            "complete_after_restart": complete,
            "objective_total": objective_total,
            "direct_objective_total": sum(_faults_direct(spec)
                                          for spec in specs),
        }, None

    raise ValueError(f"unknown faults scenario {scenario!r}")


# ----------------------------------------------------------------------
# MPC execution model (repro.mpc)
# ----------------------------------------------------------------------
@register_measurement("mpc_scaling")
def _mpc_scaling(graph, seed, algorithm="matching-proposal",
                 machines=None, delta=None, eps=0.5,
                 capacity_factor=8.0, sparsify=True):
    """One MPC run vs its default-model twin: parity + machine loads.

    Runs ``algorithm`` once through the facade in its default model
    and once under ``Instance(model="mpc", machines=..., delta=...)``,
    and reports the per-machine ledger summary next to the exact
    objective/solution parity flags the MPC port guarantees.  Every
    measure is a counter or flag, so rows are byte-deterministic.
    """

    baseline = _solved(graph, seed, algorithm, eps=eps)
    mpc = solve(
        Instance(graph, model="MPC", seed=seed, eps=eps,
                 machines=machines, delta=delta),
        algorithm, capacity_factor=capacity_factor, sparsify=sparsify,
    )
    summary = mpc.extras["mpc"]
    spars = summary["sparsify"] or {
        "triggers": 0, "dropped_messages": 0,
        "would_violate_without": False,
    }
    return {
        "algorithm": algorithm,
        "n": graph.number_of_nodes(),
        "m": graph.number_of_edges(),
        "machines": summary["machines"],
        "delta": summary["delta"],
        "capacity": summary["capacity"],
        "objective": mpc.objective,
        "baseline_objective": baseline.objective,
        "parity": mpc.objective == baseline.objective,
        "solution_parity": mpc.solution == baseline.solution,
        "mpc_rounds": summary["rounds"],
        "max_machine_load": summary["max_load"],
        "sublinear_ok": summary["sublinear_ok"],
        "peak_loads": summary["peak_loads"],
        "total_bits": summary["bits_sent"],
        "local_messages": summary["local_messages"],
        "peak_memory_words": summary["max_peak_memory"],
        "sparsify_triggers": spars["triggers"],
        "dropped_messages": spars["dropped_messages"],
        "would_violate_without": spars["would_violate_without"],
    }, None


# ----------------------------------------------------------------------
# Dynamic graphs: incremental re-solve under churn
# ----------------------------------------------------------------------
def _churn_stream(graph, seed, batches, batch_size, weighted,
                  max_weight=8):
    """A deterministic mutation stream: delete/insert edges (and, on
    weighted workloads, bump node weights) drawn from the seed's
    stable stream against the evolving graph."""

    from ..dynamic import (add_edge, apply_batch, remove_edge,
                           set_node_weight)
    from ..utils import stable_rng

    rng = stable_rng(seed, "churn-mutations")
    current = graph.copy()
    kinds = 3 if weighted else 2
    out = []
    for index in range(batches):
        batch = []
        for slot in range(batch_size):
            kind = (index * batch_size + slot) % kinds
            if kind == 0 and current.number_of_edges() > 0:
                edges = sorted(current.edges, key=repr)
                mutation = remove_edge(*edges[rng.randrange(len(edges))])
            elif kind <= 1:
                nodes = sorted(current.nodes, key=repr)
                mutation = None
                for _ in range(64):
                    u = nodes[rng.randrange(len(nodes))]
                    v = nodes[rng.randrange(len(nodes))]
                    if u != v and not current.has_edge(u, v):
                        mutation = add_edge(u, v)
                        break
                if mutation is None:  # near-complete graph: delete instead
                    edges = sorted(current.edges, key=repr)
                    mutation = remove_edge(
                        *edges[rng.randrange(len(edges))])
            else:
                nodes = sorted(current.nodes, key=repr)
                mutation = set_node_weight(
                    nodes[rng.randrange(len(nodes))],
                    1 + rng.randrange(max_weight),
                )
            current = apply_batch(current, [mutation])
            batch.append(mutation)
        out.append(batch)
    return out


@register_measurement("churn")
def _churn(graph, seed, algorithm="maxis-layers", batches=3,
           batch_size=2, radius=1, eps=None, backend=None):
    """Incremental re-solve vs from-scratch across a mutation stream.

    Builds a :class:`~repro.dynamic.DynamicInstance` with a
    deterministic churn stream, runs
    :func:`~repro.dynamic.resolve_incremental`, and solves every
    mutated version from scratch for comparison.  Costs are *round*
    counts (never wall-clock), so rows — including the recorded
    speedup — are byte-deterministic.  ``feasible`` re-certifies every
    incremental solution on its own mutated graph; ``parity_ok``
    demands the incremental and scratch objectives agree within the
    algorithm's guarantee factor in both directions.
    """

    from ..api import COMPLETE
    from ..dynamic import DynamicInstance, resolve_incremental

    weighted = algorithm.startswith("maxis")
    stream = _churn_stream(graph, seed, batches, batch_size, weighted)
    kwargs = {} if eps is None else {"eps": eps}
    dynamic = DynamicInstance(
        Instance(graph, seed=seed, backend=backend, **kwargs),
        batches=stream,
    )
    incremental = resolve_incremental(dynamic, algorithm, radius=radius)
    feasible = True
    for step in incremental.steps:
        step.report.certify()
        feasible = feasible and step.report.status == COMPLETE
    scratch = [
        solve(dynamic.version(t), algorithm)
        for t in range(1, len(dynamic) + 1)
    ]
    parity_ok = True
    for step, baseline in zip(incremental.steps[1:], scratch):
        bound = baseline.bound or 1.0
        parity_ok = parity_ok and (
            step.report.objective * bound >= baseline.objective
            and baseline.objective * bound >= step.report.objective
        )
    scratch_rounds = sum(report.rounds for report in scratch)
    repair_rounds = incremental.total_repair_rounds
    region_nodes = sum(len(step.region) for step in incremental.steps[1:])
    n = graph.number_of_nodes()
    return {
        "algorithm": algorithm,
        "n": n,
        "m": graph.number_of_edges(),
        "batches": batches,
        "batch_size": batch_size,
        "initial_rounds": incremental.steps[0].report.rounds,
        "repair_rounds": repair_rounds,
        "scratch_rounds": scratch_rounds,
        "speedup_rounds": round(
            scratch_rounds / max(1, repair_rounds), 4),
        "region_nodes": region_nodes,
        "region_fraction": round(region_nodes / (batches * n), 4),
        "feasible": feasible,
        "parity_ok": parity_ok,
        "final_objective": incremental.final.objective,
        "final_scratch_objective": scratch[-1].objective,
    }, None
