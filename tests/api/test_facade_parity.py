"""Fixed-seed golden pins for every registry entry.

``repro.api.solve`` must reproduce, bit for bit, the outputs each
algorithm produced when the facade was still checked against a second,
plain entry point per algorithm in :mod:`repro.core`.  Those entry
points are gone; their outputs live on here as pins, recorded on the
suite's two fixtures (every entry on the general graph unless it needs
a bipartite instance, and every entry on the bipartite graph): a
digest of the solution set, the objective, the round count and the
per-phase ledger counts.  A new registry entry without pins fails the
completeness test, so fixed-seed coverage cannot silently rot; a
change that moves any pinned value is a behaviour change and must
re-record the pins deliberately.
"""

import hashlib

import pytest

from repro.api import Instance, list_algorithms, solve
from repro.graphs import (
    assign_edge_weights,
    assign_node_weights,
    gnp_graph,
    random_bipartite_graph,
)

SEED = 11
EPS = 0.5

#: (algorithm, fixture) -> (solution digest, objective, rounds,
#: ledger_counts()), recorded at a fixed seed.
PINS = {
    ("matching-fast2eps", "general"): (
        "bc182e771c5a92a9", 7, 19,
        {"nmis-on-line-graph": 19, "total": 19}),
    ("matching-fast2eps", "bipartite"): (
        "6b2cc739fe77eb6c", 7, 15,
        {"nmis-on-line-graph": 15, "total": 15}),
    ("matching-fast2eps-weighted", "general"): (
        "49db13db3f4a7be0", 135, 29,
        {"bucketed-parallel-matching": 22,
         "cross-bucket-filter": 2,
         "auxiliary-weights": 4,
         "augment": 1,
         "total": 29}),
    ("matching-fast2eps-weighted", "bipartite"): (
        "1208d83b8d2acffd", 86, 41,
        {"bucketed-parallel-matching": 34,
         "cross-bucket-filter": 2,
         "auxiliary-weights": 4,
         "augment": 1,
         "total": 41}),
    ("matching-greedy", "general"): (
        "fc9d63a0fffdce92", 122, 0,
        {}),
    ("matching-greedy", "bipartite"): (
        "64b56895400518c4", 96, 0,
        {}),
    ("matching-groups", "general"): (
        "11062be5d0f2d2c2", 141, 36,
        {"layer-exchange": 2,
         "maximal-matching": 30,
         "reduce": 2,
         "addition": 2,
         "total": 36}),
    ("matching-groups", "bipartite"): (
        "56fcd434bd66d70a", 82, 36,
        {"layer-exchange": 2,
         "maximal-matching": 30,
         "reduce": 2,
         "addition": 2,
         "total": 36}),
    ("matching-hypergraph", "general"): (
        "f24fa3ece24e0125", 7, 8,
        {"nmm-iterations": 8, "total": 8}),
    ("matching-hypergraph", "bipartite"): (
        "d8ee823556ffa26f", 7, 5,
        {"nmm-iterations": 5, "total": 5}),
    ("matching-israeli-itai", "general"): (
        "e560d65e10f8d95a", 6, 10,
        {}),
    ("matching-israeli-itai", "bipartite"): (
        "b9f535611d5b25fe", 8, 15,
        {}),
    ("matching-lines", "general"): (
        "da29f4096b8fb336", 148, 15,
        {}),
    ("matching-lines", "bipartite"): (
        "64b56895400518c4", 96, 10,
        {}),
    ("matching-nearly-maximal", "general"): (
        "bc182e771c5a92a9", 7, 19,
        {}),
    ("matching-nearly-maximal", "bipartite"): (
        "6b2cc739fe77eb6c", 7, 15,
        {}),
    ("matching-oneeps", "general"): (
        "5470456c8303c4cd", 8, 23,
        {"enumerate-l1": 2,
         "nmm-phase-l1": 10,
         "flip-l1": 1,
         "enumerate-l3": 4,
         "enumerate-l5": 6,
         "total": 23}),
    ("matching-oneeps", "bipartite"): (
        "64b56895400518c4", 8, 32,
        {"enumerate-l1": 2,
         "nmm-phase-l1": 12,
         "flip-l1": 1,
         "enumerate-l3": 4,
         "enumerate-l5": 6,
         "nmm-phase-l5": 6,
         "flip-l5": 1,
         "total": 32}),
    ("matching-oneeps-bipartite", "bipartite"): (
        "1f8ef3ad877424b4", 8, 72,
        {"b3-iteration-d1": 72, "total": 72}),
    ("matching-oneeps-congest", "general"): (
        "8ed230d4ec4c6f9e", 8, 950,
        {"stage-bipartition": 8,
         "b3-iteration-d1": 60,
         "b3-iteration-d3": 882,
         "total": 950}),
    ("matching-oneeps-congest", "bipartite"): (
        "1f8ef3ad877424b4", 8, 1169,
        {"stage-bipartition": 5,
         "b3-iteration-d1": 30,
         "b3-iteration-d3": 1134,
         "total": 1169}),
    ("matching-proposal", "general"): (
        "facc733ad2bacfed", 7, 14,
        {"bipartition": 4, "bipartite-proposals": 10, "total": 14}),
    ("matching-proposal", "bipartite"): (
        "a97770ed7a57cd3e", 7, 19,
        {"bipartition": 4, "bipartite-proposals": 15, "total": 19}),
    ("matching-proposal-bipartite", "bipartite"): (
        "e2e15121392ae35e", 7, 5,
        {}),
    ("maxis-coloring", "general"): (
        "89b0660d2bd01aeb", 132, 15,
        {}),
    ("maxis-coloring", "bipartite"): (
        "5c27849565381ae4", 8, 10,
        {}),
    ("maxis-greedy", "general"): (
        "0c9da49cacc723b8", 137, 2,
        {"priority-exchange": 1, "peel": 1, "total": 2}),
    ("maxis-greedy", "bipartite"): (
        "7562b03eb2b1a346", 7, 2,
        {"priority-exchange": 1, "peel": 1, "total": 2}),
    ("maxis-layers", "general"): (
        "0c9da49cacc723b8", 137, 5,
        {}),
    ("maxis-layers", "bipartite"): (
        "b55d4007aaf0a084", 7, 8,
        {}),
    ("mis-luby", "general"): (
        "9f3e3839089d01d8", 10, 6,
        {}),
    ("mis-luby", "bipartite"): (
        "b55d4007aaf0a084", 7, 5,
        {}),
    ("mis-nearly-maximal", "general"): (
        "20e14e97741df998", 10, 16,
        {}),
    ("mis-nearly-maximal", "bipartite"): (
        "5ac75e8d42cac56e", 7, 13,
        {}),
}


def solution_digest(solution) -> str:
    """Hash-seed-independent digest of a solution set.

    Matching edges are frozensets, whose repr order follows the
    (per-process) hash order, so their members are sorted by repr
    first; the element reprs are then sorted and hashed.
    """

    def canonical(element):
        if isinstance(element, frozenset):
            return repr(sorted(map(repr, element)))
        return repr(element)

    text = "\n".join(sorted(map(canonical, solution)))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@pytest.fixture(scope="module")
def general_graph():
    g = gnp_graph(18, 0.22, seed=5)
    assign_node_weights(g, 32, seed=6)
    assign_edge_weights(g, 32, seed=7)
    return g


@pytest.fixture(scope="module")
def bipartite_graph():
    g = random_bipartite_graph(8, 8, 0.35, seed=9)
    assign_edge_weights(g, 16, seed=10)
    return g


def test_every_registered_algorithm_has_a_parity_runner():
    registered = {spec.name for spec in list_algorithms()}
    pinned = {name for name, _fixture in PINS}
    assert registered == pinned, (
        "registry and golden pins diverged — record pins for "
        f"{sorted(registered ^ pinned)}"
    )
    for spec in list_algorithms():
        fixtures = {fixture for name, fixture in PINS if name == spec.name}
        expected = ({"bipartite"} if spec.requires_bipartite
                    else {"general", "bipartite"})
        assert fixtures == expected, spec.name


@pytest.mark.parametrize("name", sorted({name for name, _ in PINS}))
def test_solve_matches_legacy_entry_point(name, general_graph,
                                          bipartite_graph):
    graphs = {"general": general_graph, "bipartite": bipartite_graph}
    for (pinned, fixture), expected in sorted(PINS.items()):
        if pinned != name:
            continue
        report = solve(Instance(graphs[fixture], eps=EPS, seed=SEED), name)
        observed = (solution_digest(report.solution), report.objective,
                    report.rounds, report.ledger_counts())
        assert observed == expected, (name, fixture)


@pytest.mark.parametrize("name", sorted({name for name, _ in PINS}))
def test_solve_is_reproducible(name, general_graph, bipartite_graph):
    spec = next(s for s in list_algorithms() if s.name == name)
    graph = bipartite_graph if spec.requires_bipartite else general_graph
    first = solve(Instance(graph, eps=EPS, seed=SEED), name)
    second = solve(Instance(graph, eps=EPS, seed=SEED), name)
    assert first.solution == second.solution
    assert first.rounds == second.rounds
    assert first.ledger_counts() == second.ledger_counts()
