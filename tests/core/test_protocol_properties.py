"""Protocol-level hypothesis tests for the distributed MaxIS programs.

These hammer Algorithm 2 and Algorithm 3 with randomized topologies,
weights, and seeds, asserting the structural invariants the protocols
must never violate regardless of scheduling: independence, maximality
(the stack discipline's coverage), the Δ bound against the exact
oracle, and agreement between engines on the guarantee.
"""

from hypothesis import given, settings, strategies as st

from repro.api import Instance, solve
from repro.graphs import (
    assign_node_weights,
    check_independent_set,
    gnp_graph,
    max_degree,
)
from repro.mis import exact_mwis, mwis_weight

from local_ratio_oracle import sequential_local_ratio

graph_params = st.tuples(
    st.integers(min_value=2, max_value=14),      # nodes
    st.integers(min_value=0, max_value=100),     # topology seed
    st.integers(min_value=1, max_value=64),      # max weight
    st.sampled_from(["uniform", "geometric", "log-uniform", "degree"]),
    st.integers(min_value=0, max_value=10),      # algorithm seed
)


@given(graph_params)
@settings(max_examples=25, deadline=None)
def test_algorithm_2_invariants(params):
    """Independence and the Δ bound always hold.  Maximality does NOT
    (a node whose weight is consumed by later-knocked-out candidates
    can end uncovered) — see test_maxis_layers for the witness."""

    n, topo_seed, w, scheme, algo_seed = params
    g = assign_node_weights(gnp_graph(n, 0.3, seed=topo_seed), w,
                            scheme=scheme, seed=topo_seed)
    result = solve(Instance(g, seed=algo_seed), "maxis-layers")
    check_independent_set(g, result.solution)
    optimum = mwis_weight(g, exact_mwis(g))
    delta = max(1, max_degree(g))
    assert delta * result.objective >= optimum


@given(graph_params)
@settings(max_examples=25, deadline=None)
def test_algorithm_3_invariants(params):
    n, topo_seed, w, scheme, _ = params
    g = assign_node_weights(gnp_graph(n, 0.3, seed=topo_seed), w,
                            scheme=scheme, seed=topo_seed)
    result = solve(Instance(g), "maxis-coloring")
    check_independent_set(g, result.solution)
    optimum = mwis_weight(g, exact_mwis(g))
    delta = max(1, max_degree(g))
    assert delta * result.objective >= optimum


@given(graph_params)
@settings(max_examples=20, deadline=None)
def test_engines_agree_on_the_guarantee(params):
    """All three formulations (sequential, layered, coloring) satisfy
    the same Δ bound on the same instance."""

    n, topo_seed, w, scheme, algo_seed = params
    g = assign_node_weights(gnp_graph(n, 0.3, seed=topo_seed), w,
                            scheme=scheme, seed=topo_seed)
    optimum = mwis_weight(g, exact_mwis(g))
    delta = max(1, max_degree(g))
    for found in (
        mwis_weight(g, sequential_local_ratio(g)),
        solve(Instance(g, seed=algo_seed), "maxis-layers").objective,
        solve(Instance(g), "maxis-coloring").objective,
    ):
        assert delta * found >= optimum
