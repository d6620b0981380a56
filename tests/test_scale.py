"""Moderate-scale smoke tests: the library must handle graphs well
beyond the unit-test sizes without blowing round budgets or wall-clock.
(The exact oracles are skipped here — guarantees are covered on small
instances; these tests establish that nothing is accidentally O(n²)
rounds or worse.)"""

import math

from repro.api import Instance, solve
from repro.core import fast_matching_2eps
from repro.graphs import (
    assign_node_weights,
    check_independent_set,
    check_matching,
    gnp_graph,
    random_regular_graph,
)
from repro.mis import luby_mis


class TestScale:
    def test_luby_600_nodes(self):
        g = gnp_graph(600, 0.01, seed=1)
        mis, rounds = luby_mis(g, seed=2)
        check_independent_set(g, mis, require_maximal=True)
        assert rounds <= 8 * math.ceil(math.log2(600))

    def test_algorithm_2_600_nodes(self):
        g = assign_node_weights(gnp_graph(600, 0.01, seed=3), 1024,
                                scheme="log-uniform", seed=4)
        result = solve(Instance(g, seed=5), "maxis-layers")
        check_independent_set(g, result.solution)
        # Theorem 2.3 with very generous constants.
        assert result.rounds <= 40 * math.ceil(math.log2(600)) * 11

    def test_fast_matching_500_nodes(self):
        g = random_regular_graph(4, 500, seed=6)
        result = fast_matching_2eps(g, eps=0.5, seed=7)
        check_matching(g, [tuple(e) for e in result.matching])
        # At least a decent fraction of a perfect matching.
        assert len(result.matching) >= 500 // 4

    def test_proposal_500_nodes(self):
        g = gnp_graph(500, 0.012, seed=8)
        result = solve(Instance(g, eps=0.25, seed=9), "matching-proposal")
        check_matching(g, [tuple(e) for e in result.solution])
        assert result.rounds <= 300
