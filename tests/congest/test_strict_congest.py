"""Strict-CONGEST compliance: every reactive protocol in the library
must fit its messages inside the O(log n)-bit bandwidth.  Running under
``strict=True`` turns any oversized message into a hard failure."""

from repro.congest import CONGEST, SynchronousNetwork
from repro.core import maxis_coloring_phases, maxis_layers_phases
from repro.core.proposal_matching import bipartite_proposal_phases
from repro.graphs import (
    assign_node_weights,
    gnp_graph,
    random_bipartite_graph,
)
from repro.matching import bipartite_sides, israeli_itai_matching
from repro.mis import luby_mis, nearly_maximal_is
from repro.utils import drain


def strict_network(graph, seed=0):
    return SynchronousNetwork(graph, model=CONGEST, seed=seed, strict=True)


class TestStrictCompliance:
    def test_luby(self):
        g = gnp_graph(40, 0.15, seed=1)
        mis, _ = luby_mis(g, network=strict_network(g, 2))
        assert mis

    def test_ghaffari_nmis(self):
        g = gnp_graph(40, 0.15, seed=3)
        independent, _, _ = nearly_maximal_is(
            g, iterations=20, k=2, network=strict_network(g, 4),
        )
        assert independent

    def test_algorithm_2(self):
        g = assign_node_weights(gnp_graph(30, 0.2, seed=5), 64, seed=6)
        result = drain(maxis_layers_phases(g,
                                           network=strict_network(g, 7)))
        assert result.independent_set

    def test_algorithm_3(self):
        g = assign_node_weights(gnp_graph(30, 0.2, seed=8), 64, seed=9)
        result = drain(maxis_coloring_phases(g,
                                             network=strict_network(g, 10)))
        assert result.independent_set

    def test_israeli_itai(self):
        g = gnp_graph(30, 0.2, seed=11)
        matching, _ = israeli_itai_matching(
            g, network=strict_network(g, 12),
        )
        assert matching

    def test_proposal(self):
        g = random_bipartite_graph(15, 15, 0.25, seed=13)
        left, right = bipartite_sides(g)
        result = drain(bipartite_proposal_phases(
            g, left, right, network=strict_network(g, 14),
        ))
        assert result.matching

    def test_weights_polynomial_in_n_fit(self):
        """The paper's standing assumption: W ≤ poly(n) so one weight
        fits in a message.  W = n³ must pass strict mode."""

        g = assign_node_weights(gnp_graph(25, 0.2, seed=15), 25 ** 3,
                                seed=16)
        result = drain(maxis_layers_phases(g,
                                           network=strict_network(g, 17)))
        assert result.independent_set
