"""Registry entries for every solver the library ships.

Each ``@algorithm`` block below is the one runner of one registry
entry (see :mod:`repro.api.registry` for the contract).  The paper's
phase programs register an ``_iter_*`` generator that drives the core
phase generator from :mod:`repro.core` into checkpoints; the remaining
entries register a plain ``_run_*`` function over :mod:`repro.core`,
:mod:`repro.mis` or :mod:`repro.matching`, which the decorator lifts
into a coarse begin/end runner.  The runners are deliberately thin —
same seeds, same defaults, same simulator construction as the core
call sites — and ``tests/api/test_facade_parity.py`` pins their
fixed-seed outputs.

``**options`` carries the algorithm-specific knobs that are not
instance data (an audit recorder, a layer trace, the NMIS ``k``, …);
anything an experiment could previously pass to an adapter remains
reachable here.
"""

from __future__ import annotations

import functools
from typing import Optional

from ..congest import RoundLedger
from ..core import (
    bipartite_matching_1eps_phases,
    bipartite_proposal_phases,
    congest_matching_1eps_stages,
    fast_matching_2eps,
    fast_matching_weighted_2eps,
    general_proposal_phases,
    greedy_mis_phases,
    improved_nearly_maximal_is,
    local_matching_1eps_phases,
    matching_lines_phases,
    maxis_coloring_phases,
    maxis_layers_phases,
    nearly_maximal_hypergraph_matching,
    nearly_maximal_matching,
    weight_group_matching,
)
from ..matching import (
    bipartite_sides,
    greedy_weighted_matching,
    israeli_itai_matching,
    matching_weight,
)
from ..mis import luby_mis
from ..mpc import MPCNetwork, mpc_greedy_mis, run_bipartite_proposal
from .anytime import COMPLETE, TRUNCATED, Checkpoint
from .instance import CONGEST, LOCAL, MPC, Instance
from .registry import algorithm
from .report import SolveReport


def _mpc_network(instance: Instance, capacity_factor: float,
                 sparsify: bool) -> MPCNetwork:
    """The MPC fleet for an ``Instance(model="mpc", ...)`` run."""

    return MPCNetwork(
        instance.graph, machines=instance.machines, delta=instance.delta,
        seed=instance.seed, capacity_factor=capacity_factor,
        sparsify=sparsify,
    )


def _report(instance: Instance, solution, objective, rounds,
            ledger: Optional[RoundLedger] = None, metrics=None,
            status: str = COMPLETE, **extras) -> SolveReport:
    """Assemble the run-specific half of a :class:`SolveReport`.

    The registry identity (algorithm name, problem kind, guarantee
    bound, weighted flag, model) is stamped by :func:`repro.api.solve`
    from the resolved spec — the single source of truth — so runners
    cannot mislabel their own reports.
    """

    return SolveReport(
        algorithm="",
        problem="",
        instance=instance,
        solution=frozenset(solution),
        objective=objective,
        weighted=False,
        rounds=rounds,
        model=instance.model or "",
        status=status,
        ledger=ledger,
        metrics=metrics,
        extras=extras,
    )


def _drive_phases(phases):
    """Forward a core phase generator's checkpoints unchanged — every
    generator yields complete :class:`Checkpoint` objects with raw
    resume state (see :mod:`repro.core.stepwise`) — and return
    ``(result, last)``: the generator's result (``None`` when the
    budget stopped it cooperatively) and the last checkpoint it
    yielded, from which a truncated runner builds its report."""

    last = None
    while True:
        try:
            last = next(phases)
        except StopIteration as stop:
            return stop.value, last
        yield last


def _truncated(instance: Instance, last: Checkpoint,
               **fields) -> SolveReport:
    """The report of a runner whose budget ran out: the last
    checkpoint's solution, objective and rounds."""

    return _report(instance, last.solution, last.objective, last.rounds,
                   status=TRUNCATED, **fields)


# ----------------------------------------------------------------------
# MaxIS (Algorithms 2 and 3) and the MIS baseline
# ----------------------------------------------------------------------
@algorithm(name="maxis-layers", problem="maxis", cli="layers",
           paper="Algorithm 2 (Thm 2.3)",
           guarantee="Δ-approx MWIS, O(MIS·log W) rounds",
           bound=lambda inst: float(max(1, inst.max_degree)),
           weighted=True, tags=("paper",), array_kernel=True)
def _iter_maxis_layers(instance: Instance, trace=None, resume_state=None):
    """Anytime Algorithm 2: one checkpoint per selection phase.

    ``instance.max_rounds``, when set, *replaces* the Theorem 2.3
    paper budget (an explicit budget wins in both directions), and the
    run stops cooperatively at that cap — a truncated run never
    simulates a round past the budget.  The partial independent set is
    valid at every phase boundary (stack discipline), so every
    checkpoint is adoptable.  On budgeted runs the final checkpoint
    captures the full simulator state (``resume_state``), and
    ``resume_state=`` warm-starts the protocol from such a capture
    with accounting continued.
    """

    network = instance.network()
    phases = maxis_layers_phases(
        instance.graph, seed=instance.seed, network=network,
        max_rounds=instance.max_rounds, trace=trace,
        capture_state=instance.max_rounds is not None,
        resume=resume_state,
    )
    result, last = yield from _drive_phases(phases)
    if result is None:
        return _truncated(instance, last, metrics=network.metrics,
                          trace=trace)
    return _report(instance, result.independent_set,
                   result.weight, result.rounds, metrics=network.metrics,
                   trace=trace)


@algorithm(name="maxis-coloring", problem="maxis", cli="coloring",
           paper="Algorithm 3",
           guarantee="Δ-approx MWIS, O(Δ + log* n), deterministic",
           bound=lambda inst: float(max(1, inst.max_degree)),
           weighted=True, deterministic=True, tags=("paper",),
           array_kernel=True)
def _iter_maxis_coloring(instance: Instance, coloring=None,
                         resume_state=None):
    """Anytime Algorithm 3: one checkpoint per local-ratio sweep.

    Checkpoint ``rounds`` follow the paper's accounting — the
    O(Δ + log* n) coloring charge up front, then one round per sweep —
    so ``instance.max_rounds`` budgets the same quantity the complete
    report's ``rounds`` measures; a budget below the coloring charge
    truncates at the (empty) initial state without simulating.  The
    coloring is deterministic and recomputed on resume, never
    serialized.
    """

    network = instance.network()
    phases = maxis_coloring_phases(
        instance.graph, network=network, coloring=coloring,
        max_rounds=instance.max_rounds,
        capture_state=instance.max_rounds is not None,
        resume=resume_state,
    )
    result, last = yield from _drive_phases(phases)
    if result is None:
        return _truncated(instance, last, metrics=network.metrics)
    return _report(instance, result.independent_set,
                   result.weight, result.accounted_rounds,
                   metrics=network.metrics,
                   local_ratio_rounds=result.local_ratio_rounds,
                   accounted_rounds=result.accounted_rounds,
                   measured_rounds=result.measured_rounds,
                   coloring=result.coloring)


@algorithm(name="maxis-greedy", problem="maxis", cli="greedy",
           paper="folklore",
           guarantee="Δ-approx MWIS, deterministic parallel peeling",
           bound=lambda inst: float(max(1, inst.max_degree)),
           weighted=True, deterministic=True,
           models=(CONGEST, LOCAL, MPC), tags=("baseline",))
def _iter_greedy_mis(instance: Instance, resume_state=None,
                     capacity_factor: float = 8.0,
                     sparsify: bool = True):
    """Anytime greedy MWIS: one checkpoint per peeling sweep.

    Under ``Instance(model="mpc")`` the peeling runs as the
    joined/excluded message protocol on the MPC fleet (coarse
    begin/end checkpoints; the protocol is deterministic, so a
    restart-style resume reproduces it), with the per-machine ledger
    summary attached as ``extras["mpc"]``.  The chosen set is the same
    unique greedy set either way.
    """

    if instance.model == MPC:
        yield Checkpoint(phase="init", solution=frozenset(), objective=0,
                         rounds=0)
        network = _mpc_network(instance, capacity_factor, sparsify)
        chosen, weight, rounds = mpc_greedy_mis(instance.graph, network)
        yield Checkpoint(phase="mpc-peel", solution=chosen,
                         objective=weight, rounds=rounds, final=True)
        return _report(instance, chosen, weight, rounds,
                       mpc=network.summary())
    phases = greedy_mis_phases(
        instance.graph, max_rounds=instance.max_rounds,
        capture_state=instance.max_rounds is not None,
        resume=resume_state,
    )
    result, last = yield from _drive_phases(phases)
    if result is None:
        return _truncated(instance, last)
    return _report(instance, result.independent_set, result.weight,
                   result.rounds, ledger=result.ledger)


@algorithm(name="mis-luby", problem="mis",
           paper="Luby 1986",
           guarantee="maximal independent set, O(log n) rounds w.h.p.",
           tags=("baseline",))
def _run_mis_luby(instance: Instance) -> SolveReport:
    network = instance.network()
    mis, rounds = luby_mis(instance.graph, seed=instance.seed,
                           network=network)
    return _report(instance, mis, len(mis), rounds,
                   metrics=network.metrics)


# ----------------------------------------------------------------------
# 2-approximate weighted matchings (Theorem 2.10 / footnote 5)
# ----------------------------------------------------------------------
@algorithm(name="matching-lines", problem="matching", cli="lines",
           paper="Theorem 2.10",
           guarantee="2-approx MWM via MaxIS on L(G)",
           bound=lambda inst: 2.0, weighted=True, tags=("paper",))
def _iter_matching_lines(instance: Instance, method: str = "layers",
                         audit=None, resume_state=None):
    """Anytime Theorem 2.10: one checkpoint per MaxIS selection phase
    on the line graph.  The line graph is rebuilt deterministically on
    resume; the payload pins which MaxIS engine (``method``) produced
    it, and that engine wins over the ``method`` default when resuming.
    """

    if resume_state is not None:
        method = resume_state["method"]
    lines = matching_lines_phases(
        instance.graph, method=method, seed=instance.seed, audit=audit,
        max_rounds=instance.max_rounds,
        capture_state=instance.max_rounds is not None,
        resume=resume_state,
    )
    result, last = yield from _drive_phases(lines)
    if result is None:
        return _truncated(instance, last, audit=audit, method=method)
    return _report(instance, result.matching,
                   result.weight, result.rounds, audit=result.audit,
                   method=method)


@algorithm(name="matching-groups", problem="matching", cli="groups",
           paper="footnote 5",
           guarantee="2-approx MWM on G directly (weight groups)",
           bound=lambda inst: 2.0, weighted=True, tags=("paper",))
def _run_matching_groups(instance: Instance,
                         mm_rounds_charge=None) -> SolveReport:
    result = weight_group_matching(instance.graph, seed=instance.seed,
                                   mm_rounds_charge=mm_rounds_charge)
    return _report(instance, result.matching,
                   result.weight, result.rounds, ledger=result.ledger,
                   iterations=result.iterations)


# ----------------------------------------------------------------------
# Fast (2+ε) matchings (Section 3 / Appendix B.1)
# ----------------------------------------------------------------------
@algorithm(name="matching-fast2eps", problem="matching", cli="fast2eps",
           paper="Theorem 3.2",
           guarantee="(2+ε)-approx MCM, O(log Δ/log log Δ) rounds",
           bound=lambda inst: 2.0 + inst.eps, uses_eps=True,
           tags=("paper",))
def _run_fast2eps(instance: Instance, k=None, beta: float = 4.0
                  ) -> SolveReport:
    kwargs = {} if k is None else {"k": k}
    result = fast_matching_2eps(instance.graph, eps=instance.eps,
                                seed=instance.seed, beta=beta, **kwargs)
    return _report(instance, result.matching,
                   len(result.matching), result.rounds,
                   ledger=result.ledger,
                   unlucky_edges=result.unlucky_edges)


@algorithm(name="matching-fast2eps-weighted", problem="matching",
           cli="fast2eps-weighted", paper="Appendix B.1",
           guarantee="(2+ε)-approx MWM",
           bound=lambda inst: 2.0 + inst.eps, weighted=True,
           uses_eps=True, tags=("paper",))
def _run_fast2eps_weighted(instance: Instance, beta_bucket=None
                           ) -> SolveReport:
    kwargs = {} if beta_bucket is None else {"beta_bucket": beta_bucket}
    result = fast_matching_weighted_2eps(instance.graph, eps=instance.eps,
                                         seed=instance.seed, **kwargs)
    return _report(instance, result.matching,
                   result.weight, result.rounds, ledger=result.ledger,
                   unlucky_edges=result.unlucky_edges)


# ----------------------------------------------------------------------
# (1+ε) matchings (Appendix B.3 / Theorems B.4, B.12)
# ----------------------------------------------------------------------
@algorithm(name="matching-oneeps", problem="matching", cli="oneeps",
           paper="Theorem B.4",
           guarantee="(1+ε)-approx MCM, LOCAL model",
           bound=lambda inst: 1.0 + inst.eps, uses_eps=True,
           models=(LOCAL,), tags=("paper",))
def _iter_oneeps_local(instance: Instance, k: float = 2.0,
                       failure_delta=None, path_cap: int = 200_000,
                       initial_matching=None, resume_state=None):
    """Anytime Theorem B.4: one checkpoint per Hopcroft–Karp phase;
    stops cooperatively before any phase past ``max_rounds``."""

    phases = local_matching_1eps_phases(
        instance.graph, eps=instance.eps, seed=instance.seed, k=k,
        failure_delta=failure_delta, path_cap=path_cap,
        initial_matching=initial_matching,
        max_rounds=instance.max_rounds,
        capture_state=instance.max_rounds is not None,
        resume=resume_state,
    )
    result, last = yield from _drive_phases(phases)
    if result is None:
        return _truncated(instance, last, **last.extras)
    return _report(instance, result.matching,
                   result.cardinality, result.rounds, ledger=result.ledger,
                   deactivated=result.deactivated,
                   truncated_phases=result.truncated_phases)


@algorithm(name="matching-oneeps-congest", problem="matching",
           cli="oneeps-congest", paper="Theorem B.12",
           guarantee="(1+ε)-approx MCM, CONGEST model",
           bound=lambda inst: 1.0 + inst.eps, uses_eps=True,
           models=(CONGEST,), tags=("paper",))
def _iter_oneeps_congest(instance: Instance, k: float = 2.0,
                         failure_delta=None, stages=None,
                         max_iterations=None, resume_state=None):
    """Anytime Theorem B.12: one checkpoint per bipartition stage;
    stops cooperatively before any stage past ``max_rounds``."""

    phases = congest_matching_1eps_stages(
        instance.graph, eps=instance.eps, seed=instance.seed, k=k,
        failure_delta=failure_delta, stages=stages,
        max_iterations=max_iterations, max_rounds=instance.max_rounds,
        capture_state=instance.max_rounds is not None,
        resume=resume_state,
    )
    result, last = yield from _drive_phases(phases)
    if result is None:
        return _truncated(instance, last, **last.extras)
    return _report(instance, result.matching,
                   result.cardinality, result.rounds, ledger=result.ledger,
                   deactivated=result.deactivated, stages=result.stages)


@algorithm(name="matching-oneeps-bipartite", problem="matching",
           paper="Appendix B.3",
           guarantee="(1+ε)-approx MCM on bipartite instances",
           bound=lambda inst: 1.0 + inst.eps, uses_eps=True,
           requires_bipartite=True, tags=("paper",))
def _iter_oneeps_bipartite(instance: Instance, k: float = 2.0,
                           failure_delta=None, initial_matching=None,
                           max_iterations=None, resume_state=None):
    """Anytime Appendix B.3 (bipartite): one checkpoint per length-d
    phase; stops cooperatively before any phase past ``max_rounds``."""

    left, right = bipartite_sides(instance.graph)
    ledger = RoundLedger()
    phases = bipartite_matching_1eps_phases(
        instance.graph, left, right, eps=instance.eps, seed=instance.seed,
        k=k, failure_delta=failure_delta,
        initial_matching=initial_matching, ledger=ledger,
        max_iterations=max_iterations, max_rounds=instance.max_rounds,
        capture_state=instance.max_rounds is not None,
        resume=resume_state,
    )
    result, last = yield from _drive_phases(phases)
    if result is None:
        return _truncated(instance, last, **last.extras)
    matching, deactivated = result
    return _report(instance, matching,
                   len(matching), ledger.total, ledger=ledger,
                   deactivated=deactivated)


# ----------------------------------------------------------------------
# Proposal matchings (Appendix B.4)
# ----------------------------------------------------------------------
@algorithm(name="matching-proposal", problem="matching", cli="proposal",
           paper="Lemma B.14",
           guarantee="(2+ε)-approx MCM, proposal-based",
           bound=lambda inst: 2.0 + inst.eps, uses_eps=True,
           models=(CONGEST, LOCAL, MPC), tags=("paper",),
           array_kernel=True)
def _iter_proposal(instance: Instance, k=None, repetitions=None,
                   resume_state=None, capacity_factor: float = 8.0,
                   sparsify: bool = True):
    """Anytime Lemma B.14: one checkpoint per bipartition repetition;
    stops cooperatively before any repetition past ``max_rounds``.

    Under ``Instance(model="mpc")`` every round's mail moves through
    the MPC fleet's shuffle — same programs, so the same matching and
    round count, with the per-machine ledger summary attached as
    ``extras["mpc"]``.
    """

    network = bipartite = None
    if instance.model == MPC:
        network = _mpc_network(instance, capacity_factor, sparsify)
        bipartite = functools.partial(run_bipartite_proposal, network)
    phases = general_proposal_phases(
        instance.graph, eps=instance.eps, k=k, seed=instance.seed,
        repetitions=repetitions, max_rounds=instance.max_rounds,
        capture_state=instance.max_rounds is not None,
        resume=resume_state, backend=instance.backend,
        bipartite=bipartite,
    )
    result, last = yield from _drive_phases(phases)
    extras = {} if network is None else {"mpc": network.summary()}
    if result is None:
        return _truncated(instance, last, **extras)
    matching, rounds, ledger = result
    return _report(instance, matching, len(matching),
                   rounds, ledger=ledger, **extras)


@algorithm(name="matching-proposal-bipartite", problem="matching",
           paper="Lemma B.13",
           guarantee="(2+ε)-approx MCM on bipartite instances",
           bound=lambda inst: 2.0 + inst.eps, uses_eps=True,
           requires_bipartite=True, tags=("paper",), array_kernel=True)
def _iter_proposal_bipartite(instance: Instance, k=None, phases=None,
                             resume_state=None):
    """Anytime Lemma B.13: one checkpoint per propose/respond phase
    (two simulator rounds); the simulator stops cooperatively at the
    budget.  The payload pins the derived K and phase count, so a
    resumed run replays the identical deadline."""

    left, right = bipartite_sides(instance.graph)
    network = instance.network()
    stream = bipartite_proposal_phases(
        instance.graph, left, right, eps=instance.eps, k=k,
        seed=instance.seed, network=network, phases=phases,
        max_rounds=instance.max_rounds,
        capture_state=instance.max_rounds is not None,
        resume=resume_state,
    )
    result, last = yield from _drive_phases(stream)
    if result is None:
        return _truncated(instance, last, metrics=network.metrics,
                          unlucky=set(last.extras["unlucky"]))
    return _report(instance, result.matching,
                   len(result.matching), result.rounds,
                   metrics=network.metrics, unlucky=result.unlucky,
                   phases=result.phases)


# ----------------------------------------------------------------------
# Baselines
# ----------------------------------------------------------------------
@algorithm(name="matching-israeli-itai", problem="matching",
           cli="israeli-itai", paper="Israeli–Itai 1986",
           guarantee="maximal matching (2-approx MCM), O(log n) rounds",
           bound=lambda inst: 2.0, tags=("baseline",))
def _run_israeli_itai(instance: Instance) -> SolveReport:
    network = instance.network()
    matching, rounds = israeli_itai_matching(instance.graph,
                                             seed=instance.seed,
                                             network=network)
    return _report(instance, matching,
                   len(matching), rounds, metrics=network.metrics)


@algorithm(name="matching-greedy", problem="matching", cli="greedy",
           paper="folklore",
           guarantee="2-approx MWM, sequential greedy baseline",
           bound=lambda inst: 2.0, weighted=True, deterministic=True,
           tags=("baseline", "sequential"))
def _run_greedy(instance: Instance) -> SolveReport:
    matching = greedy_weighted_matching(instance.graph)
    return _report(instance, matching,
                   matching_weight(instance.graph, matching), 0)


# ----------------------------------------------------------------------
# Promoted sub-procedures (Section 3.1 / Appendix B.2)
# ----------------------------------------------------------------------
# These two used to be internal building blocks only; they now ride the
# anytime protocol as first-class registry entries (ROADMAP open item).
@algorithm(name="matching-nearly-maximal", problem="matching",
           cli="nearly-maximal", paper="Theorem 3.1 on L(G)",
           guarantee="nearly-maximal matching, O(log Δ/log log Δ) rounds",
           tags=("paper", "subprocedure"))
def _run_nearly_maximal_matching(instance: Instance, failure_delta=0.05,
                                 k=None, beta: float = 4.0) -> SolveReport:
    matching, unlucky, rounds = nearly_maximal_matching(
        instance.graph, failure_delta=failure_delta, k=k, beta=beta,
        seed=instance.seed,
    )
    return _report(instance, matching, len(matching), rounds,
                   unlucky_edges=unlucky)


@algorithm(name="matching-hypergraph", problem="matching",
           cli="hypergraph", paper="Appendix B.2 (rank d=2)",
           guarantee="nearly-maximal matching via hypergraph NMM "
                     "at rank 2",
           tags=("paper", "subprocedure"))
def _run_matching_hypergraph(instance: Instance, k: float = 2.0,
                             failure_delta: float = 0.05,
                             max_iterations=None,
                             good_cap=None) -> SolveReport:
    # Graph edges as rank-2 hyperedges in the deterministic repr order,
    # so the index-based result maps back stably.
    hyperedges = [
        frozenset(edge) for edge in sorted(
            (tuple(sorted(e, key=repr)) for e in instance.graph.edges),
            key=repr,
        )
    ]
    result = nearly_maximal_hypergraph_matching(
        hyperedges, rank=2, k=k, failure_delta=failure_delta,
        seed=instance.seed, max_iterations=max_iterations,
        good_cap=good_cap,
    )
    matching = frozenset(hyperedges[i] for i in result.matched_edges)
    ledger = RoundLedger()
    ledger.charge(result.iterations, "nmm-iterations")
    return _report(instance, matching, len(matching), result.iterations,
                   ledger=ledger, deactivated=result.deactivated,
                   drained=result.drained)


@algorithm(name="mis-nearly-maximal", problem="mis",
           paper="Theorem 3.1",
           guarantee="nearly-maximal IS (each node in/dominated w.p. "
                     "≥ 1-δ), O(log Δ/log K + K² log 1/δ) rounds",
           tags=("paper", "subprocedure"))
def _run_mis_nearly_maximal(instance: Instance, failure_delta=0.05,
                            k=None, beta: float = 4.0,
                            collect_stats: bool = False) -> SolveReport:
    network = instance.network()
    result = improved_nearly_maximal_is(
        instance.graph, failure_delta=failure_delta, k=k, beta=beta,
        seed=instance.seed, network=network, collect_stats=collect_stats,
    )
    return _report(instance, result.independent_set,
                   len(result.independent_set), result.rounds,
                   metrics=network.metrics, residual=result.residual,
                   iterations=result.iterations, k=result.k,
                   stats=result.stats)
