"""Cross-module integration tests: full pipelines against exact oracles,
adversarial workloads, and failure injection."""


import networkx as nx
import pytest

from repro.analysis import approximation_ratio, summarize
from repro.api import TRUNCATED, Instance, solve
from repro.congest import CONGEST, SynchronousNetwork
from repro.core import (
    congest_matching_1eps_stages,
    fast_matching_2eps,
    fast_matching_weighted_2eps,
    local_matching_1eps_phases,
    maxis_layers_phases,
)
from repro.graphs import (
    assign_edge_weights,
    assign_node_weights,
    caterpillar_graph,
    gnp_graph,
    max_degree,
    random_regular_graph,
    star_graph,
)
from repro.matching import (
    israeli_itai_matching,
    optimum_cardinality,
    optimum_weight,
)
from repro.mis import exact_mwis, mwis_weight
from repro.utils import drain

from local_ratio_oracle import sequential_local_ratio


def layered(graph, seed):
    """Algorithm 2's objective through the facade."""

    return solve(Instance(graph, seed=seed), "maxis-layers").objective


def colored(graph):
    """Algorithm 3's objective through the facade."""

    return solve(Instance(graph), "maxis-coloring").objective


def lines(graph, seed):
    """Theorem 2.10 (Algorithm 2 on L(G)) through the facade."""

    return solve(Instance(graph, seed=seed), "matching-lines")


class TestMaxISPipelines:
    """All three MaxIS implementations agree on the guarantee."""

    @pytest.mark.parametrize("seed", range(3))
    def test_all_engines_beat_delta_bound(self, seed):
        g = assign_node_weights(gnp_graph(16, 0.25, seed=seed), 32,
                                seed=seed)
        optimum = mwis_weight(g, exact_mwis(g))
        delta = max(1, max_degree(g))
        sequential = mwis_weight(g, sequential_local_ratio(g))
        for found in (sequential, layered(g, seed), colored(g)):
            assert delta * found >= optimum

    def test_distributed_usually_beats_greedy_on_adversarial(self):
        """Degree-correlated weights trap the degree-greedy heuristic;
        local ratio keeps its guarantee."""

        g = assign_node_weights(caterpillar_graph(8, 3), 64,
                                scheme="degree")
        optimum = mwis_weight(g, exact_mwis(g))
        assert max_degree(g) * layered(g, seed=1) >= optimum

    def test_star_trap_all_engines(self):
        g = assign_node_weights(star_graph(8), 64, scheme="star-trap")
        optimum = mwis_weight(g, exact_mwis(g))
        for found in (
            mwis_weight(g, sequential_local_ratio(g)),
            layered(g, seed=2),
            colored(g),
        ):
            assert max_degree(g) * found >= optimum


class TestMatchingPipelines:
    """Every matching algorithm meets its factor on shared workloads."""

    @pytest.mark.parametrize("seed", range(2))
    def test_factor_ladder(self, seed):
        g = assign_edge_weights(gnp_graph(18, 0.25, seed=seed), 16,
                                seed=seed + 1)
        opt_w = optimum_weight(g)
        opt_c = optimum_cardinality(g)

        two_approx = lines(g, seed=seed)
        assert 2 * two_approx.objective >= opt_w

        fast = fast_matching_2eps(g, eps=0.5, seed=seed)
        assert 2.5 * len(fast.matching) >= opt_c

        weighted = fast_matching_weighted_2eps(g, eps=0.5, seed=seed)
        assert 2.5 * weighted.weight >= opt_w

        one_eps = drain(local_matching_1eps_phases(g, eps=0.5, seed=seed))
        assert 1.5 * (one_eps.cardinality
                      + len(one_eps.deactivated)) >= opt_c

    def test_weighted_algorithms_beat_unweighted_on_bimodal(self):
        """The separation the weighted algorithms exist for."""

        g = assign_edge_weights(gnp_graph(24, 0.2, seed=5), 1000,
                                scheme="bimodal", seed=6)
        unweighted, _ = israeli_itai_matching(g, seed=7)
        weighted = lines(g, seed=7)
        # Maximal matching ignores weights; local ratio must capture at
        # least half the optimal weight, which bimodal workloads put on
        # few heavy edges.
        assert 2 * weighted.objective >= optimum_weight(g)
        ratio_weighted = approximation_ratio(optimum_weight(g),
                                             weighted.objective)
        assert ratio_weighted <= 2.0

    def test_round_hierarchy_on_regular_graph(self):
        """Fast algorithms' measured rounds stay below Algorithm 2 on
        the line graph for unweighted instances (the paper's point)."""

        g = random_regular_graph(4, 32, seed=3)
        slow = lines(g, seed=4)
        fast = fast_matching_2eps(g, eps=0.5, seed=4)
        assert fast.rounds <= 4 * max(1, slow.rounds)


class TestSeedStability:
    def test_approximation_ratios_are_stable(self):
        g = assign_node_weights(gnp_graph(14, 0.3, seed=9), 16, seed=10)
        optimum = mwis_weight(g, exact_mwis(g))
        ratios = []
        for seed in range(5):
            found = layered(g, seed=seed)
            ratios.append(approximation_ratio(optimum, found))
        stats = summarize(ratios)
        assert stats.maximum <= max_degree(g)
        assert stats.mean <= 2.0  # empirically far below Δ


class TestFailureInjection:
    def test_round_limit_surfaces_cleanly(self):
        # An unmeetable round budget is reported, not raised: the run
        # stops inside the budget with a certified partial solution.
        g = gnp_graph(12, 0.3, seed=1)
        report = solve(Instance(g, seed=1, max_rounds=1), "maxis-layers")
        assert report.status == TRUNCATED
        assert report.rounds <= 1
        assert report.bound is None

    def test_strict_congest_mode_runs_clean_for_algorithm_2(self):
        """Algorithm 2's messages are O(log n)-bit: strict CONGEST must
        not raise."""

        g = assign_node_weights(gnp_graph(20, 0.2, seed=2), 64, seed=3)
        net = SynchronousNetwork(g, model=CONGEST, seed=4, strict=True)
        result = drain(maxis_layers_phases(g, network=net))
        assert result.rounds > 0
        assert net.metrics.violations == 0

    def test_disconnected_graph_components_run_independently(self):
        g = nx.disjoint_union(gnp_graph(8, 0.4, seed=5),
                              gnp_graph(8, 0.4, seed=6))
        assign_node_weights(g, 16, seed=7)
        result = solve(Instance(g, seed=8), "maxis-layers")
        assert result.solution

    def test_self_contained_congest_1eps_small(self):
        g = gnp_graph(12, 0.3, seed=11)
        result = drain(congest_matching_1eps_stages(g, eps=1.0, seed=12))
        opt = optimum_cardinality(g)
        assert 2 * (result.cardinality + len(result.deactivated)) >= opt
