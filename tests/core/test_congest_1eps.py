"""Tests for the CONGEST (1+ε) matching (Appendix B.3).

The key unit-level claims are Claims B.5/B.6: the forward traversal
counts augmenting paths exactly, and the backward traversal computes
per-node path counts exactly.  These are verified against brute-force
path enumeration — this is also what reproduces Figure 1.
"""

import math

import pytest

from repro.core import (
    BipartiteAugmentingPhase,
    bipartite_matching_1eps_phases,
    congest_matching_1eps_stages,
    enumerate_augmenting_paths,
    lemma_b11_budget,
    precision_round_factor,
    shortest_augmenting_path_length,
)
from repro.errors import NotResumable
from repro.graphs import check_matching, gnp_graph, random_bipartite_graph
from repro.matching import bipartite_sides, hopcroft_karp, optimum_cardinality
from repro.utils import drain


def make_phase(graph, matching, d, seed=0):
    a, b = bipartite_sides(graph)
    return BipartiteAugmentingPhase(graph, a, b, matching, d=d, eps=0.5,
                                    seed=seed)


class TestForwardTraversalCounts:
    """Claim B.5: with α ≡ 1 the traversal counts augmenting paths."""

    @pytest.mark.parametrize("seed", range(4))
    def test_endpoint_counts_match_enumeration_d1(self, seed):
        g = random_bipartite_graph(6, 6, 0.4, seed=seed)
        phase = make_phase(g, set(), d=1, seed=seed)
        counts, _, _ = phase._forward(phase.scope, use_alpha=False)
        paths = enumerate_augmenting_paths(g, set(), 1)
        per_endpoint = {}
        _, b_side = bipartite_sides(g)
        for p in paths:
            end = p[0] if p[0] in b_side else p[-1]
            per_endpoint[end] = per_endpoint.get(end, 0) + 1
        for b, count in per_endpoint.items():
            assert counts.get(b, 0) == pytest.approx(count)

    @pytest.mark.parametrize("seed", range(4))
    def test_endpoint_counts_match_enumeration_d3(self, seed):
        g = random_bipartite_graph(7, 7, 0.35, seed=seed)
        # Build some matching with no length-1 augmenting path left:
        # use a maximal matching (greedy).
        matching = set()
        used = set()
        for u, v in sorted(g.edges, key=repr):
            if u not in used and v not in used:
                matching.add(frozenset((u, v)))
                used |= {u, v}
        phase = make_phase(g, matching, d=3, seed=seed)
        counts, _, _ = phase._forward(phase.scope, use_alpha=False)
        paths = enumerate_augmenting_paths(g, matching, 3)
        a_side, b_side = bipartite_sides(g)
        per_endpoint = {}
        for p in paths:
            # Paths run between a free A-node and a free B-node; count
            # only those oriented A->B like the traversal does.
            end = p[-1] if p[-1] in b_side else p[0]
            start = p[0] if p[-1] in b_side else p[-1]
            if start in a_side:
                per_endpoint[end] = per_endpoint.get(end, 0) + 1
        for b in b_side:
            assert counts.get(b, 0) == pytest.approx(
                per_endpoint.get(b, 0)
            )


class TestBackwardTraversalCounts:
    """Claim B.6: every node learns its through-path count."""

    @pytest.mark.parametrize("seed", range(4))
    def test_per_node_counts_match_enumeration(self, seed):
        g = random_bipartite_graph(7, 7, 0.35, seed=seed)
        matching = set()
        used = set()
        for u, v in sorted(g.edges, key=repr):
            if u not in used and v not in used:
                matching.add(frozenset((u, v)))
                used |= {u, v}
        phase = make_phase(g, matching, d=3, seed=seed)
        counts, contrib, raw = phase._forward(phase.scope, use_alpha=False)
        through = phase._backward(counts, contrib, raw)
        paths = enumerate_augmenting_paths(g, matching, 3)
        per_node = {}
        for p in paths:
            for v in p:
                per_node[v] = per_node.get(v, 0) + 1
        for v, count in per_node.items():
            assert through.get(v, 0) == pytest.approx(count)

    def test_attenuated_mass_is_product_along_paths(self):
        """With non-trivial α the endpoint mass is Σ_P Π_{v∈P} α(v)."""

        g = random_bipartite_graph(5, 5, 0.5, seed=9)
        phase = make_phase(g, set(), d=1, seed=9)
        a_side, b_side = bipartite_sides(g)
        counts, _, _ = phase._forward(phase.scope)
        k = phase.k
        for b in b_side:
            expected = sum(
                1.0 / k for a in g.neighbors(b) if a not in phase.mate
            )
            assert counts.get(b, 0) == pytest.approx(expected)


class TestPhase:
    @pytest.mark.parametrize("seed", range(3))
    def test_phase_drains_length_one(self, seed):
        g = random_bipartite_graph(8, 8, 0.3, seed=seed)
        phase = make_phase(g, set(), d=1, seed=seed)
        outcome = phase.run()
        assert outcome.drained
        active = phase.scope
        assert not enumerate_augmenting_paths(
            g, phase.matching, 1, active=active
        )

    def test_flipped_paths_yield_valid_matching(self):
        g = random_bipartite_graph(10, 10, 0.25, seed=5)
        phase = make_phase(g, set(), d=1, seed=5)
        phase.run()
        check_matching(g, [tuple(e) for e in phase.matching])


class TestBipartiteFull:
    @pytest.mark.parametrize("seed", range(3))
    def test_quality_against_hopcroft_karp(self, seed):
        g = random_bipartite_graph(10, 10, 0.3, seed=seed)
        a, b = bipartite_sides(g)
        eps = 0.5
        matching, deactivated = drain(bipartite_matching_1eps_phases(
            g, a, b, eps=eps, seed=seed
        ))
        check_matching(g, [tuple(e) for e in matching])
        opt = len(hopcroft_karp(g))
        assert (1 + eps) * (len(matching) + len(deactivated)) >= opt

    def test_no_short_paths_remain_among_active(self):
        g = random_bipartite_graph(9, 9, 0.3, seed=7)
        a, b = bipartite_sides(g)
        eps = 0.5
        matching, deactivated = drain(bipartite_matching_1eps_phases(
            g, a, b, eps=eps, seed=7
        ))
        max_length = 2 * math.ceil(1 / eps) + 1
        remaining = shortest_augmenting_path_length(
            g, matching, active=set(g.nodes) - deactivated,
            max_length=max_length,
        )
        assert remaining is None


class TestGeneralGraphs:
    @pytest.mark.parametrize("seed", range(3))
    def test_theorem_b12_quality(self, seed):
        g = gnp_graph(18, 0.25, seed=seed)
        eps = 0.5
        result = drain(congest_matching_1eps_stages(g, eps=eps, seed=seed))
        check_matching(g, [tuple(e) for e in result.matching])
        opt = optimum_cardinality(g)
        slack = len(result.deactivated)
        assert (1 + eps) * (result.cardinality + slack) >= opt

    def test_rounds_and_stages_reported(self, small_graph):
        result = drain(congest_matching_1eps_stages(small_graph, eps=0.5,
                                                    seed=1))
        assert result.rounds > 0
        assert result.stages >= 1


class TestBudgets:
    def test_precision_factor_grows_with_tight_eps(self):
        assert precision_round_factor(64, 0.1, 100) >= \
            precision_round_factor(64, 0.5, 100)

    def test_lemma_b11_budget_positive(self):
        assert lemma_b11_budget(3, 2, 32, 0.05) > 0


class TestNotifyWave:
    """The retired stage-boundary notification wave: stage payloads
    keep the wave-less layout, and payloads that pinned the wave are
    refused instead of resuming without it."""

    def _graph(self, seed=1):
        return gnp_graph(20, 0.3, seed=seed)

    @staticmethod
    def _drain(gen):
        last = None
        while True:
            try:
                last = next(gen)
            except StopIteration as stop:
                return last, stop.value

    def test_waveless_payload_keeps_historical_layout(self):
        g = self._graph(seed=9)
        stream = congest_matching_1eps_stages(g, seed=1,
                                              capture_state=True)
        state = next(stream).resume_state
        stream.close()
        assert "notify_wave" not in state["options"]
        # and a pre-wave payload resumes wave-less (back-compat)
        _last, resumed = self._drain(congest_matching_1eps_stages(
            g, seed=1, resume=state))
        plain = drain(congest_matching_1eps_stages(g, seed=1))
        assert resumed.matching == plain.matching
        assert resumed.rounds == plain.rounds

    def test_wave_payload_is_refused(self):
        g = self._graph(seed=9)
        stream = congest_matching_1eps_stages(g, seed=1,
                                              capture_state=True)
        state = next(stream).resume_state
        stream.close()
        state["options"]["notify_wave"] = True
        with pytest.raises(NotResumable, match="notify_wave"):
            next(congest_matching_1eps_stages(g, seed=1, resume=state))
