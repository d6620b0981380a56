"""The one result type every registered algorithm returns.

A :class:`SolveReport` unifies what the core per-algorithm result
dataclasses (``MaxISResult``, ``FastMatchingResult``,
``OneEpsResult``, …) each carried a different slice of: the solution
itself, its objective value, a validity certificate, the guaranteed
approximation bound, the :class:`~repro.congest.RoundLedger` round
accounting, and the simulator's :class:`NetworkMetrics` when the run
went through the message-passing simulator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional
from weakref import WeakKeyDictionary

from ..analysis import approximation_ratio
from ..congest import RoundLedger
from ..congest.network import NetworkMetrics
from ..graphs import check_independent_set, check_matching
from ..matching import optimum_cardinality, optimum_weight
from ..mis import exact_mwis, mwis_weight
from .anytime import COMPLETE
from .instance import Instance

#: Exact optima keyed by graph object, then by (objective kind,
#: structure/weight fingerprint), shared by every report on the same
#: graph (quickstart-style scripts solve one instance with several
#: algorithms; the exponential/cubic oracle should run once).  The
#: fingerprint invalidates the entry when the graph is re-weighted or
#: re-wired in place; weakly keyed so graphs are not kept alive.
_ORACLE_CACHE: "WeakKeyDictionary" = WeakKeyDictionary()


@dataclass
class SolveReport:
    """Outcome of one :func:`repro.api.solve` call.

    ``solution`` is a frozenset of nodes (MaxIS/MIS) or of
    2-node frozensets (matching).  ``objective`` is the weight for
    weighted problems and the cardinality otherwise.  ``bound`` is the
    numeric approximation factor the algorithm guarantees on this
    instance (e.g. Δ for MaxIS, ``2 + ε`` for the fast matching), or
    ``None`` when no factor applies (heuristics / exact baselines).

    ``status`` is :data:`~repro.api.COMPLETE` for a run that finished
    inside its budgets, or :data:`~repro.api.TRUNCATED` when
    ``Instance.max_rounds`` ran out first — the solution is then the
    best *valid partial* solution within the budget (still certified),
    and ``bound`` is ``None`` because the guarantee only holds for
    completed runs.

    A truncated report additionally carries ``resume_state``: the
    JSON-safe warm-start payload of the last resumable checkpoint the
    budget admitted.  Hand the report (or the payload itself, e.g.
    after persisting it through ``json.dumps``/``loads``) to
    :func:`repro.api.resume` to continue the run from that boundary
    instead of re-solving from scratch; at a fixed seed the
    continuation is bit-for-bit the run that was never cut.  Complete
    reports carry ``None`` (there is nothing left to run).
    """

    algorithm: str
    problem: str                      # "maxis" | "matching" | "mis"
    instance: Instance
    solution: frozenset
    objective: int
    weighted: bool
    rounds: int
    model: str
    status: str = COMPLETE
    bound: Optional[float] = None
    ledger: Optional[RoundLedger] = None
    metrics: Optional[NetworkMetrics] = None
    extras: Dict[str, Any] = field(default_factory=dict)
    resume_state: Optional[Dict[str, Any]] = field(default=None,
                                                   repr=False)
    #: Per-report memo of the exact optimum (and the derived
    #: comparison): ``compare()`` called twice on the same report must
    #: not re-fingerprint the graph, let alone re-run the exponential
    #: oracle.  ``init=False`` keeps both out of the constructor.
    _optimum_memo: Optional[int] = field(default=None, init=False,
                                         repr=False, compare=False)
    _comparison_memo: Optional[Dict[str, Any]] = field(default=None,
                                                       init=False,
                                                       repr=False,
                                                       compare=False)

    # -- derived views -------------------------------------------------
    @property
    def size(self) -> int:
        """Cardinality of the solution (|IS| or |M|)."""
        return len(self.solution)

    def certify(self) -> "SolveReport":
        """Validate the solution against the instance (independence for
        MaxIS/MIS, vertex-disjointness for matchings).

        Raises :class:`~repro.errors.AlgorithmContractViolation` on an
        invalid solution; returns ``self`` so the facade can chain it.
        """

        graph = self.instance.graph
        if self.problem in ("maxis", "mis"):
            check_independent_set(graph, self.solution)
        else:
            check_matching(graph, [tuple(e) for e in self.solution])
        return self

    def ledger_counts(self) -> Dict[str, int]:
        """The round breakdown as a plain dict (``{}`` if unledgered)."""

        return self.ledger.as_dict() if self.ledger is not None else {}

    def optimum(self) -> int:
        """The exact optimum for this instance's objective.

        Exponential for MaxIS (exact MWIS) and cubic for weighted
        matching (Edmonds) — call it on small instances only.  The
        value is computed once per graph, objective kind and
        structure/weight fingerprint, and cached across reports
        (``compare()`` and ``as_row(oracle=True)`` both go through
        it); in-place re-weighting or re-wiring changes the
        fingerprint and triggers a recompute.  Repeat calls on the
        *same* report short-circuit through a per-report memo without
        re-hashing the graph.
        """

        if self._optimum_memo is not None:
            return self._optimum_memo
        if self.problem in ("maxis", "mis"):
            kind = self.problem
        else:
            kind = ("matching", self.weighted)
        per_graph = _ORACLE_CACHE.setdefault(self.instance.graph, {})
        key = (kind, self._oracle_fingerprint())
        if key not in per_graph:
            per_graph[key] = self._compute_optimum()
        self._optimum_memo = per_graph[key]
        return self._optimum_memo

    def _oracle_fingerprint(self) -> int:
        """Hash of everything the exact optimum depends on: the edge
        set, plus node weights (MaxIS/MIS) or edge weights (weighted
        matching).  O(n + m log m) — negligible next to the oracle."""

        graph = self.instance.graph
        edges = tuple(sorted(
            tuple(sorted((repr(u), repr(v)))) for u, v in graph.edges
        ))
        if self.problem in ("maxis", "mis"):
            weights = tuple(sorted(
                (repr(v), data.get("weight", 1))
                for v, data in graph.nodes(data=True)
            ))
        elif self.weighted:
            weights = tuple(
                data.get("weight", 1)
                for _, _, data in sorted(
                    graph.edges(data=True),
                    key=lambda e: tuple(sorted((repr(e[0]), repr(e[1])))),
                )
            )
        else:
            weights = ()
        return hash((edges, weights))

    def _compute_optimum(self) -> int:
        graph = self.instance.graph
        if self.problem == "maxis":
            return mwis_weight(graph, exact_mwis(graph))
        if self.problem == "mis":
            # Maximum *cardinality* independent set: strip the weights.
            import networkx as nx

            unweighted = nx.Graph()
            unweighted.add_nodes_from(graph.nodes)
            unweighted.add_edges_from(graph.edges)
            return len(exact_mwis(unweighted))
        if self.weighted:
            return optimum_weight(graph)
        return optimum_cardinality(graph)

    def compare(self) -> Dict[str, Any]:
        """Compare against the exact optimum.

        Returns ``{"optimum", "ratio", "within_bound"}`` where
        ``within_bound`` checks the guaranteed factor (``None`` bound
        ⇒ ``True`` vacuously).  The (1+ε) matchers only promise the
        factor after crediting the nodes they deactivated on unlucky
        coin flips (Theorem B.4's accounting), so when the report
        carries ``extras["deactivated"]`` the bound is checked against
        ``objective + |deactivated|``; ``ratio`` always reflects the
        raw objective.

        The comparison is memoised on the report: a second call
        returns a copy of the first result instead of recomputing the
        exact oracle pipeline.
        """

        if self._comparison_memo is None:
            opt = self.optimum()
            ratio = approximation_ratio(opt, self.objective)
            within = True
            if self.bound is not None:
                effective = self.objective + len(
                    self.extras.get("deactivated", ())
                )
                within = self.bound * effective >= opt
            self._comparison_memo = {
                "optimum": opt, "ratio": ratio, "within_bound": within,
            }
        return dict(self._comparison_memo)

    def as_row(self, oracle: bool = False) -> Dict[str, Any]:
        """A flat table/export row (the CLI and bench table shape)."""

        row: Dict[str, Any] = {
            "problem": self.problem,
            "algorithm": self.algorithm,
            "n": self.instance.n,
            "delta": self.instance.max_degree,
            "size": self.size,
            "objective": self.objective,
            "rounds": self.rounds,
        }
        if self.weighted:
            # Weighted problems historically exported this column as
            # "weight" (the `maxis --export` row shape); keep both.
            row["weight"] = self.objective
        if self.status != COMPLETE:
            # Complete runs keep the historical row shape; budgeted
            # runs surface their truncation.
            row["status"] = self.status
        if self.bound is not None:
            row["bound"] = self.bound
        if oracle:
            comparison = self.compare()
            row["optimum"] = comparison["optimum"]
            row["ratio"] = comparison["ratio"]
        return row


__all__ = ["SolveReport"]
