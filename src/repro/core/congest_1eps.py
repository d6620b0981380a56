"""Appendix B.3 — (1+ε)-approximate maximum cardinality matching, CONGEST.

The CONGEST algorithm cannot materialize the conflict graph of augmenting
paths, so everything happens on the fly over the bipartite base graph:

* **Forward traversal** (Claim B.5/B.6): unmatched A-nodes emit their
  attenuation; values flow along non-matching edges A→B and matching
  edges B→A for d rounds.  A matched B-node forwards only its *first*
  receipt (BFS layering — later receipts belong to longer paths); after
  d rounds every unmatched B-node holds Σ_P p_t(P) over the length-d
  augmenting paths P ending at it, where ``p_t(P) = Π_{v∈P} α_t(v)``.
* **Backward traversal**: sums are split proportionally to the forward
  contributions, so every node learns Σ_{P ∋ v} p_t(P).
* **Attenuation updates**: a node with path-mass ≥ 1/(10d) is *heavy*
  and multiplies its attenuation by K^{-2d} (floored at Δ^{-20/ε} — the
  floor keeps numbers in O(log Δ/ε) bits, Claim B.8's remark); others
  raise it by K back toward the initial value.
* **Marking**: each non-heavy unmatched B-node initiates a token with
  probability equal to its path mass; tokens walk backward link by link,
  choosing predecessors proportionally to forward contributions.  Tokens
  meeting at a node — or touching a node another token already used —
  die; tokens reaching an unmatched A-node augment their path and remove
  its nodes from the phase.
* **Good-iteration deactivation** (Lemma B.10): the traversals are
  re-run restricted to light (non-heavy) nodes; a node whose light path
  mass is ≥ 1/(dK^{2d}) has a good iteration, and after Θ(dK^{2d} log 1/δ)
  good iterations it is manually deactivated (probability ≤ δ of
  happening — Lemma B.10).

General graphs (Theorem B.12) reduce to bipartite stages by random
red/blue coloring, keeping unmatched nodes and bichromatically-matched
nodes; a node free in a stage's bipartite subgraph is free in G, so
stage-local augmenting paths are global ones.

Round accounting: one iteration costs Θ(d) traversal rounds, times the
⌈O(log Δ/ε²)/bandwidth⌉ grouping factor for shipping wide fixed-point
numbers (the paper's remark on floating-point precision).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Set, Tuple

import networkx as nx

from ..congest import RoundLedger
from ..errors import AlgorithmContractViolation, InvalidInstance, NotResumable
from ..graphs import check_matching, is_augmenting_path, max_degree
from ..utils import drain, restore_rng, rng_state, stable_rng
from .stepwise import Checkpoint, phase_names

Path = Tuple[Hashable, ...]


def precision_round_factor(delta: int, eps: float, n: int) -> int:
    """⌈bits-needed / bandwidth⌉ — the Θ(1/ε²) round-grouping factor."""

    bits_needed = max(16.0, math.log2(max(2, delta)) / (eps * eps))
    bandwidth = 8 * math.ceil(math.log2(max(2, n)))
    return max(1, math.ceil(bits_needed / bandwidth))


def lemma_b11_budget(d: int, k: float, delta: int, failure_delta: float,
                     beta: float = 1.0) -> int:
    """Lemma B.11's Θ(d⁴K^{2d} log 1/δ + d³ log_K Δ) iteration budget."""

    delta = max(2, delta)
    return max(1, math.ceil(beta * (
        (d ** 4) * (k ** (2 * d)) * math.log(1.0 / failure_delta)
        + (d ** 3) * math.log(delta) / math.log(k)
    )))


@dataclass
class PhaseOutcome:
    """Result of one length-d bipartite phase."""

    flipped: List[Path]
    deactivated: Set[Hashable]
    iterations: int
    drained: bool


class BipartiteAugmentingPhase:
    """Finds and flips a nearly-maximal set of length-d augmenting paths.

    Operates on a bipartite graph with sides ``a_side``/``b_side`` and a
    matching (mutated in place via the returned flips by the caller).
    ``scope`` excludes deactivated nodes and nodes consumed by earlier
    flips in this phase.
    """

    def __init__(self, graph: nx.Graph, a_side: Set[Hashable],
                 b_side: Set[Hashable], matching: Set[frozenset],
                 d: int, eps: float, k: float = 2.0,
                 failure_delta: float = 0.05, seed: int = 0,
                 max_iterations: Optional[int] = None):
        if d % 2 == 0:
            raise InvalidInstance(f"augmenting path length must be odd: {d}")
        self.graph = graph
        self.a_side = set(a_side)
        self.b_side = set(b_side)
        self.matching = set(matching)
        self.d = d
        self.eps = eps
        self.k = float(k)
        self.failure_delta = failure_delta
        self.rng = stable_rng(seed, "b3-phase", d)
        self.delta = max(2, max_degree(graph))
        self.alpha_floor = float(self.delta) ** (-20.0 / eps)
        self.mate: Dict[Hashable, Hashable] = {}
        for edge in self.matching:
            u, v = tuple(edge)
            self.mate[u] = v
            self.mate[v] = u
        self.scope: Set[Hashable] = set(a_side) | set(b_side)
        self.alpha: Dict[Hashable, float] = {}
        self.alpha0: Dict[Hashable, float] = {}
        for v in self.a_side:
            init = (1.0 / self.k) if v not in self.mate else 1.0
            self.alpha[v] = init
            self.alpha0[v] = init
        for v in self.b_side:
            self.alpha[v] = 1.0
            self.alpha0[v] = 1.0
        self.good_rounds: Dict[Hashable, int] = {}
        self.good_cap = max(1, math.ceil(
            3.0 * d * (self.k ** (2 * d))
            * math.log(1.0 / failure_delta)
        ))
        if max_iterations is None:
            # The Lemma B.11 budget is asymptotic; for small d its
            # constant-free value can undershoot, so floor it — the
            # drain check makes unused budget free.
            budget = lemma_b11_budget(d, self.k, self.delta, failure_delta,
                                      beta=2.0)
            max_iterations = min(max(budget, 120), 500)
        self.max_iterations = max_iterations

    # ------------------------------------------------------------------
    # traversals
    # ------------------------------------------------------------------
    def _forward(self, scope: Set[Hashable], use_alpha: bool = True
                 ) -> Tuple[Dict[Hashable, float],
                            Dict[Hashable, Dict[Hashable, float]],
                            Dict[Hashable, float]]:
        """Forward traversal: returns (P, contrib, raw).

        ``P[b]``       — attenuated path mass at unmatched B-node b,
        ``contrib[v]`` — per-predecessor forward values at v's activation,
        ``raw[v]``     — un-attenuated sum received at v's activation.
        With ``use_alpha=False`` all attenuations are 1, so ``P[b]`` is
        the *count* of length-d augmenting paths ending at b (Claim B.5).
        """

        alpha = self.alpha if use_alpha else {v: 1.0 for v in self.alpha}
        value: Dict[Hashable, float] = {}
        depth: Dict[Hashable, int] = {}
        contrib: Dict[Hashable, Dict[Hashable, float]] = {}
        raw: Dict[Hashable, float] = {}
        path_mass: Dict[Hashable, float] = {}
        for a in self.a_side:
            if a in scope and a not in self.mate:
                value[a] = alpha.get(a, 1.0)
                depth[a] = 0
        for t in range(1, self.d + 1):
            if t % 2 == 1:  # A -> B along non-matching edges
                inbox: Dict[Hashable, Dict[Hashable, float]] = {}
                for a, val in value.items():
                    if depth.get(a) != t - 1:
                        continue
                    for b in self.graph.neighbors(a):
                        if b not in scope or b not in self.b_side:
                            continue
                        if frozenset((a, b)) in self.matching:
                            continue
                        inbox.setdefault(b, {})[a] = val
                for b, sources in inbox.items():
                    if b in depth:
                        continue  # already activated: longer-path traffic
                    total = sum(sources.values())
                    if b in self.mate:
                        if t < self.d:
                            depth[b] = t
                            contrib[b] = sources
                            raw[b] = total
                    elif t == self.d:
                        depth[b] = t
                        contrib[b] = sources
                        raw[b] = total
                        path_mass[b] = alpha.get(b, 1.0) * total
            else:  # matched B -> its A-mate along the matching edge
                for b in list(depth):
                    if depth[b] != t - 1 or b not in self.b_side:
                        continue
                    a = self.mate.get(b)
                    if a is None or a not in scope or a in depth:
                        continue
                    depth[a] = t
                    contrib[a] = {b: raw[b]}
                    raw[a] = raw[b]
                    value[a] = alpha.get(a, 1.0) * raw[b]
        return path_mass, contrib, raw

    def _backward(self, path_mass: Dict[Hashable, float],
                  contrib: Dict[Hashable, Dict[Hashable, float]],
                  raw: Dict[Hashable, float]) -> Dict[Hashable, float]:
        """Backward traversal: every node's total path mass (Claim B.6)."""

        through: Dict[Hashable, float] = {}
        incoming: Dict[Hashable, float] = dict(path_mass)
        frontier = list(path_mass)
        for _ in range(self.d):
            next_incoming: Dict[Hashable, float] = {}
            for v in frontier:
                mass = incoming.get(v, 0.0)
                through[v] = through.get(v, 0.0) + mass
                if v in self.b_side:
                    sources = contrib.get(v, {})
                    total = raw.get(v, 0.0)
                    if total <= 0.0:
                        continue
                    for a, val in sources.items():
                        share = mass * (val / total)
                        next_incoming[a] = next_incoming.get(a, 0.0) + share
                else:  # matched A-node: pass everything to its mate
                    b = self.mate.get(v)
                    if b is not None and b in contrib.get(v, {}):
                        next_incoming[b] = next_incoming.get(b, 0.0) + mass
            incoming = next_incoming
            frontier = list(incoming)
        for v, mass in incoming.items():
            through[v] = through.get(v, 0.0) + mass
        return through

    # ------------------------------------------------------------------
    # one iteration
    # ------------------------------------------------------------------
    def _update_attenuations(self, through: Dict[Hashable, float]) -> None:
        heavy_threshold = 1.0 / (10.0 * self.d)
        shrink = self.k ** (-2.0 * self.d)
        for v in list(self.alpha):
            if v not in self.scope:
                continue
            if v in self.b_side and v in self.mate:
                continue  # matched B-nodes keep α = 1
            if through.get(v, 0.0) >= heavy_threshold:
                self.alpha[v] = max(self.alpha[v] * shrink,
                                    self.alpha_floor)
            else:
                self.alpha[v] = min(self.alpha0[v], self.alpha[v] * self.k)

    def _count_good_iterations(self, through: Dict[Hashable, float]) -> None:
        heavy_threshold = 1.0 / (10.0 * self.d)
        light_scope = {
            v for v in self.scope
            if through.get(v, 0.0) < heavy_threshold
        }
        light_mass, light_contrib, light_raw = self._forward(light_scope)
        light_through = self._backward(light_mass, light_contrib, light_raw)
        good_threshold = 1.0 / (self.d * (self.k ** (2 * self.d)))
        for v in light_scope:
            if light_through.get(v, 0.0) >= good_threshold:
                self.good_rounds[v] = self.good_rounds.get(v, 0) + 1

    def _deactivate_exhausted(self) -> Set[Hashable]:
        exhausted = {
            v for v, count in self.good_rounds.items()
            if count > self.good_cap and v in self.scope
        }
        self.scope -= exhausted
        return exhausted

    def _route_tokens(self, path_mass: Dict[Hashable, float],
                      contrib: Dict[Hashable, Dict[Hashable, float]],
                      raw: Dict[Hashable, float]) -> List[Path]:
        """Marking + link-by-link backward token routing."""

        skip_threshold = 1.0 / self.d
        tokens: Dict[Hashable, List[Hashable]] = {}
        visited: Set[Hashable] = set()
        for b, z in path_mass.items():
            if z > skip_threshold:
                continue
            if self.rng.random() < z:
                tokens[b] = [b]
                visited.add(b)
        for _ in range(self.d):
            moves: Dict[Hashable, List[Hashable]] = {}
            for token_id, path in tokens.items():
                current = path[-1]
                if len(path) == self.d + 1:
                    continue
                if current in self.b_side:
                    sources = contrib.get(current, {})
                    if not sources:
                        moves.setdefault(None, []).append(token_id)
                        continue
                    names = sorted(sources, key=repr)
                    weights = [sources[a] for a in names]
                    target = self.rng.choices(names, weights=weights)[0]
                else:
                    target = self.mate.get(current)
                moves.setdefault(target, []).append(token_id)
            dead: Set[Hashable] = set()
            for target, ids in moves.items():
                if target is None or len(ids) > 1 or target in visited:
                    dead.update(ids)
                    continue
                visited.add(target)
                tokens[ids[0]].append(target)
            for token_id in dead:
                del tokens[token_id]
        successes: List[Path] = []
        for path in tokens.values():
            if len(path) == self.d + 1 and path[-1] in self.a_side \
                    and path[-1] not in self.mate:
                # Token paths run end → start; reverse to a0 ... b_end.
                successes.append(tuple(reversed(path)))
        return successes

    # ------------------------------------------------------------------
    def run(self, ledger: Optional[RoundLedger] = None) -> PhaseOutcome:
        """Iterate until no length-d augmenting path remains in scope."""

        if ledger is None:
            ledger = RoundLedger()
        factor = precision_round_factor(
            self.delta, self.eps, self.graph.number_of_nodes()
        )
        flipped: List[Path] = []
        deactivated: Set[Hashable] = set()
        drained = False
        iterations = 0
        for _ in range(self.max_iterations):
            counts, _, _ = self._forward(self.scope, use_alpha=False)
            if not any(c > 0 for c in counts.values()):
                drained = True
                break
            iterations += 1
            path_mass, contrib, raw = self._forward(self.scope)
            through = self._backward(path_mass, contrib, raw)
            self._count_good_iterations(through)
            successes = self._route_tokens(path_mass, contrib, raw)
            for path in successes:
                self._flip(path)
                flipped.append(path)
            self._update_attenuations(through)
            deactivated |= self._deactivate_exhausted()
            # forward + backward + light rerun + tokens + confirmation.
            ledger.charge(6 * self.d * factor, f"b3-iteration-d{self.d}")
        return PhaseOutcome(
            flipped=flipped,
            deactivated=deactivated,
            iterations=iterations,
            drained=drained,
        )

    def _flip(self, path: Path) -> None:
        if not is_augmenting_path(self.graph, self.matching, path):
            raise AlgorithmContractViolation(
                f"token produced a non-augmenting path {path!r}"
            )
        for i in range(len(path) - 1):
            edge = frozenset((path[i], path[i + 1]))
            if i % 2 == 0:
                self.matching.add(edge)
                self.mate[path[i]] = path[i + 1]
                self.mate[path[i + 1]] = path[i]
            else:
                self.matching.discard(edge)
        # Path nodes leave the phase: they are matched now, and the paper
        # removes them so later tokens cannot route through them.
        self.scope -= set(path)


# ----------------------------------------------------------------------
# full algorithm: bipartite phases inside random-bipartition stages
# ----------------------------------------------------------------------
@dataclass
class CongestOneEpsResult:
    matching: Set[frozenset]
    deactivated: Set[Hashable]
    rounds: int
    stages: int
    ledger: RoundLedger = field(default_factory=RoundLedger)

    @property
    def cardinality(self) -> int:
        return len(self.matching)


def bipartite_matching_1eps_phases(
    graph: nx.Graph,
    a_side: Set[Hashable],
    b_side: Set[Hashable],
    eps: float = 0.5,
    seed: int = 0,
    k: float = 2.0,
    failure_delta: Optional[float] = None,
    initial_matching: Optional[Set[frozenset]] = None,
    ledger: Optional[RoundLedger] = None,
    max_iterations: Optional[int] = None,
    max_rounds: Optional[int] = None,
    capture_state: bool = False,
    resume: Optional[dict] = None,
):
    """Run the length-1,3,…,L phase loop on a bipartite graph.

    Yields ``length-i`` checkpoints for the initial state and after
    every length-d phase (``extras["deactivated"]``); the matching is
    valid at every phase boundary.  With ``max_rounds`` set, stops before
    launching a phase once ``ledger.total`` has reached the budget and
    returns ``None``; otherwise returns the final
    ``(matching, deactivated)`` pair.

    ``capture_state=True`` attaches a resume payload to every
    checkpoint; ``resume=`` restarts the phase loop there (phase
    randomness is keyed ``seed + 101·d``, so the continuation replays
    the uncut run's exact stream).
    """

    if failure_delta is None:
        failure_delta = max(1e-3, min(0.1, eps * eps / 4.0))
    if ledger is None:
        ledger = RoundLedger()
    matching = set(initial_matching or set())
    deactivated: Set[Hashable] = set()
    max_length = 2 * math.ceil(1.0 / eps) + 1
    start_d = 1
    if resume is not None:
        start_d = resume["next_d"]
        matching = set(resume["matching"])
        deactivated = set(resume["deactivated"])
        ledger.restore(resume["ledger"])
        # The payload pins the resolved options so the continuation
        # replays the identical phase parameters even when the caller
        # omits them on resume.
        k = resume["options"]["k"]
        failure_delta = resume["options"]["failure_delta"]
        max_iterations = resume["options"]["max_iterations"]
    names = phase_names("length")

    def snapshot(next_d):
        state = None
        if capture_state:
            state = {
                "rounds": ledger.total,
                "next_d": next_d,
                "matching": set(matching),
                "deactivated": set(deactivated),
                "ledger": ledger.state(),
                "options": {"k": k, "failure_delta": failure_delta,
                            "max_iterations": max_iterations},
            }
        return Checkpoint(
            phase=next(names), solution=frozenset(matching),
            objective=len(matching), rounds=ledger.total,
            extras={"deactivated": set(deactivated)}, resume_state=state,
        )

    yield snapshot(start_d)
    for d in range(start_d, max_length + 1, 2):
        if max_rounds is not None and ledger.total >= max_rounds:
            return None
        phase = BipartiteAugmentingPhase(
            graph, a_side - deactivated, b_side - deactivated,
            matching, d=d, eps=eps, k=k, failure_delta=failure_delta,
            seed=seed + 101 * d, max_iterations=max_iterations,
        )
        outcome = phase.run(ledger)
        matching = phase.matching
        deactivated |= outcome.deactivated
        check_matching(graph, matching)
        yield snapshot(d + 2)
    return matching, deactivated


def congest_matching_1eps_stages(
    graph: nx.Graph,
    eps: float = 0.5,
    seed: int = 0,
    k: float = 2.0,
    failure_delta: Optional[float] = None,
    stages: Optional[int] = None,
    max_iterations: Optional[int] = None,
    max_rounds: Optional[int] = None,
    capture_state: bool = False,
    resume: Optional[dict] = None,
):
    """Anytime Theorem B.12: one checkpoint per bipartition stage.

    (1+ε)-approximate MCM in general graphs (CONGEST): runs
    2^{O(1/ε)} random red/blue bipartition stages; each stage's
    bipartite subgraph keeps unmatched nodes and bichromatically-matched
    nodes, so stage augmenting paths are global augmenting paths.  Stops
    early when a stage leaves the matching unchanged and no short
    augmenting path survives among active nodes.

    Yields ``stage-i`` checkpoints for the initial state and after
    every red/blue stage (the matching is vertex-disjoint at every
    stage boundary, so each checkpoint is a valid partial solution;
    ``extras`` count the stages run and the deactivated nodes).  With
    ``max_rounds`` set, the generator stops *before* launching a stage
    once the ledger has consumed the budget — cooperatively, so
    truncation costs nothing beyond the rounds actually accounted — and
    returns ``None``; otherwise it returns the usual
    :class:`CongestOneEpsResult`.

    ``capture_state=True`` attaches a resume payload to every
    checkpoint, including the stage-coloring RNG state; ``resume=``
    restores it, so the continuation draws the exact red/blue colors
    the uncut run would have drawn.  Payloads pinning the retired
    ``notify_wave`` option are refused with
    :class:`~repro.errors.NotResumable`: their round ledger counts
    waiting-phase waves this run no longer charges.
    """

    if eps <= 0:
        raise InvalidInstance(f"eps must be positive, got {eps}")
    if failure_delta is None:
        failure_delta = max(1e-3, min(0.1, 2.0 ** (-1.0 / eps)))
    if stages is None:
        stages = min(48, 4 * 2 ** math.ceil(1.0 / eps))
    rng = stable_rng(seed, "b12-stages")
    ledger = RoundLedger()
    matching: Set[frozenset] = set()
    deactivated: Set[Hashable] = set()
    max_length = 2 * math.ceil(1.0 / eps) + 1
    executed = 0
    start_stage = 0
    finished = False
    if resume is not None:
        if resume["options"].get("notify_wave", False):
            raise NotResumable(
                "payload was captured with notify_wave=True, which is no "
                "longer supported; re-solve without it"
            )
        start_stage = resume["next_stage"]
        executed = resume["stages"]
        finished = resume["finished"]
        matching = set(resume["matching"])
        deactivated = set(resume["deactivated"])
        ledger.restore(resume["ledger"])
        restore_rng(rng, resume["rng"])
        # The payload pins the resolved options (most importantly the
        # total stage count) so the continuation replays the identical
        # stage loop even when the caller omits them on resume.
        k = resume["options"]["k"]
        failure_delta = resume["options"]["failure_delta"]
        stages = resume["options"]["stages"]
        max_iterations = resume["options"]["max_iterations"]
    names = phase_names("stage")

    def snapshot(next_stage):
        state = None
        if capture_state:
            options = {"k": k, "failure_delta": failure_delta,
                       "stages": stages,
                       "max_iterations": max_iterations}
            state = {
                "rounds": ledger.total,
                "next_stage": next_stage,
                "stages": executed,
                "finished": finished,
                "matching": set(matching),
                "deactivated": set(deactivated),
                "ledger": ledger.state(),
                "rng": rng_state(rng),
                "options": options,
            }
        extras = {
            "deactivated": set(deactivated),
            "stages": executed,
        }
        return Checkpoint(phase=next(names), solution=frozenset(matching),
                          objective=len(matching), rounds=ledger.total,
                          extras=extras, resume_state=state)

    yield snapshot(start_stage)
    for stage in range(start_stage, stages):
        if finished:
            break
        if max_rounds is not None and ledger.total >= max_rounds:
            return None
        executed = stage + 1
        colors = {
            v: ("A" if rng.random() < 0.5 else "B") for v in graph.nodes
        }
        mate: Dict[Hashable, Hashable] = {}
        for edge in matching:
            u, v = tuple(edge)
            mate[u] = v
            mate[v] = u
        kept = set()
        for v in graph.nodes:
            if v in deactivated:
                continue
            if v not in mate:
                kept.add(v)
            elif colors[v] != colors[mate[v]] and mate[v] not in deactivated:
                # A matched node enters the stage only alongside its mate;
                # otherwise it would look free in the bipartite subgraph
                # while being matched in G.
                kept.add(v)
        sub = nx.Graph()
        sub.add_nodes_from(kept)
        for u, v in graph.edges:
            if u in kept and v in kept and colors[u] != colors[v]:
                sub.add_edge(u, v)
        ledger.charge(1, "stage-bipartition")
        a_side = {v for v in kept if colors[v] == "A"}
        b_side = {v for v in kept if colors[v] == "B"}
        stage_matching = {
            e for e in matching if all(x in kept for x in e)
        }
        before = len(matching)
        new_stage_matching, new_deactivated = drain(
            bipartite_matching_1eps_phases(
                sub, a_side, b_side, eps=eps, seed=seed + 7919 * stage,
                k=k, failure_delta=failure_delta,
                initial_matching=stage_matching, ledger=ledger,
                max_iterations=max_iterations,
            )
        )
        matching = (matching - stage_matching) | new_stage_matching
        deactivated |= new_deactivated
        check_matching(graph, matching)
        if len(matching) == before:
            from .augmenting import shortest_augmenting_path_length

            # Evaluated before the yield (it is deterministic, so the
            # order is observationally identical) so the checkpoint's
            # resume payload already knows whether the stage loop is
            # over — a resumed run must not launch stages the uncut
            # run would never have run.
            remaining = shortest_augmenting_path_length(
                graph, matching,
                active=set(graph.nodes) - deactivated,
                max_length=max_length,
            )
            finished = remaining is None
        yield snapshot(stage + 1)
        if finished:
            break
    return CongestOneEpsResult(
        matching=matching,
        deactivated=deactivated,
        rounds=ledger.total,
        stages=executed,
        ledger=ledger,
    )
