"""Tests for the output validators."""

import random

import networkx as nx
import pytest

from repro.errors import AlgorithmContractViolation
from repro.graphs import (
    check_coloring,
    check_independent_set,
    check_matching,
    cycle_graph,
    is_augmenting_path,
    matched_nodes,
    path_graph,
)


class TestIndependentSet:
    def test_accepts_valid(self):
        g = path_graph(5)
        check_independent_set(g, {0, 2, 4})

    def test_rejects_adjacent(self):
        g = path_graph(5)
        with pytest.raises(AlgorithmContractViolation):
            check_independent_set(g, {0, 1})

    def test_rejects_foreign_nodes(self):
        g = path_graph(3)
        with pytest.raises(AlgorithmContractViolation):
            check_independent_set(g, {0, 99})

    def test_maximality_accepted(self):
        g = path_graph(5)
        check_independent_set(g, {0, 2, 4}, require_maximal=True)

    def test_maximality_rejected(self):
        g = path_graph(5)
        with pytest.raises(AlgorithmContractViolation):
            check_independent_set(g, {0}, require_maximal=True)

    def test_empty_set_ok_on_empty_graph(self):
        check_independent_set(nx.Graph(), set(), require_maximal=True)


class TestMatching:
    def test_accepts_valid(self):
        g = path_graph(6)
        check_matching(g, [(0, 1), (2, 3), (4, 5)])

    def test_rejects_shared_endpoint(self):
        g = path_graph(4)
        with pytest.raises(AlgorithmContractViolation):
            check_matching(g, [(0, 1), (1, 2)])

    def test_rejects_non_edge(self):
        g = path_graph(4)
        with pytest.raises(AlgorithmContractViolation):
            check_matching(g, [(0, 2)])

    def test_maximality(self):
        g = path_graph(5)
        check_matching(g, [(0, 1), (2, 3)], require_maximal=True)
        with pytest.raises(AlgorithmContractViolation):
            check_matching(g, [(1, 2)], require_maximal=True)

    def test_matched_nodes(self):
        assert matched_nodes([frozenset((1, 2)), (3, 4)]) == {1, 2, 3, 4}


class TestColoring:
    def test_accepts_proper(self):
        g = cycle_graph(4)
        check_coloring(g, {0: 0, 1: 1, 2: 0, 3: 1}, palette_size=2)

    def test_rejects_monochromatic_edge(self):
        g = path_graph(3)
        with pytest.raises(AlgorithmContractViolation):
            check_coloring(g, {0: 0, 1: 0, 2: 1})

    def test_rejects_uncolored_node(self):
        g = path_graph(3)
        with pytest.raises(AlgorithmContractViolation):
            check_coloring(g, {0: 0, 1: 1})

    def test_rejects_oversized_palette(self):
        g = path_graph(3)
        with pytest.raises(AlgorithmContractViolation):
            check_coloring(g, {0: 0, 1: 1, 2: 2}, palette_size=2)

    @pytest.mark.parametrize("bad", [7, 2, -1, 1.0, "1", True, None])
    def test_rejects_colors_outside_the_palette_range(self, bad):
        # Two distinct colors fit a palette of 2 by count; each must
        # also be an int in range(2).
        g = path_graph(2)
        with pytest.raises(AlgorithmContractViolation, match="outside"):
            check_coloring(g, {0: 0, 1: bad}, palette_size=2)


class TestAugmentingPath:
    def test_simple_free_edge(self):
        g = path_graph(2)
        assert is_augmenting_path(g, set(), (0, 1))

    def test_length_three(self):
        g = path_graph(4)
        matching = {frozenset((1, 2))}
        assert is_augmenting_path(g, matching, (0, 1, 2, 3))

    def test_rejects_matched_endpoint(self):
        g = path_graph(4)
        matching = {frozenset((0, 1))}
        assert not is_augmenting_path(g, matching, (1, 2, 3))

    def test_rejects_wrong_alternation(self):
        g = path_graph(4)
        assert not is_augmenting_path(g, set(), (0, 1, 2, 3))

    def test_rejects_repeated_nodes(self):
        g = cycle_graph(4)
        matching = {frozenset((1, 2))}
        assert not is_augmenting_path(g, matching, (0, 1, 2, 1))

    def test_rejects_non_edges(self):
        g = path_graph(4)
        assert not is_augmenting_path(g, set(), (0, 2))


# ----------------------------------------------------------------------
# Same verdicts, same messages as the view-walking validators
# ----------------------------------------------------------------------
def reference_independent_set(graph, nodes, require_maximal=False):
    chosen = set(nodes)
    missing = chosen - set(graph.nodes)
    if missing:
        return ("independent set contains non-nodes: "
                f"{sorted(map(repr, missing))[:5]}")
    for u in chosen:
        for v in graph.neighbors(u):
            if v in chosen:
                return f"independent set contains adjacent nodes {u!r} and {v!r}"
    if require_maximal:
        for v in graph.nodes:
            if v not in chosen and not any(
                    u in chosen for u in graph.neighbors(v)):
                return f"set is not maximal: {v!r} has no neighbor in the set"
    return None


def reference_matching(graph, edges, require_maximal=False):
    matched = set()
    for u, v in [tuple(e) for e in edges]:
        if not graph.has_edge(u, v):
            return f"matching contains non-edge ({u!r}, {v!r})"
        if u in matched or v in matched:
            return f"matching edges share an endpoint at ({u!r}, {v!r})"
        matched.update((u, v))
    if require_maximal:
        for u, v in graph.edges:
            if u not in matched and v not in matched:
                return f"matching is not maximal: edge ({u!r}, {v!r}) is free"
    return None


def reference_coloring(graph, colors, palette_size=None):
    for v in graph.nodes:
        if v not in colors:
            return f"node {v!r} is uncolored"
    for u, v in graph.edges:
        if colors[u] == colors[v]:
            return f"adjacent nodes {u!r}, {v!r} share color {colors[u]!r}"
    if palette_size is not None:
        for v in graph.nodes:
            color = colors[v]
            if (not isinstance(color, int) or isinstance(color, bool)
                    or not 0 <= color < palette_size):
                return (f"node {v!r} has color {color!r}, "
                        f"outside range({palette_size})")
    return None


def message_of(check, *args, **kwargs):
    try:
        check(*args, **kwargs)
    except AlgorithmContractViolation as exc:
        return str(exc)
    return None


def random_case(seed):
    rng = random.Random(seed)
    graph = nx.gnp_random_graph(rng.randrange(1, 14), rng.random() * 0.6,
                                seed=seed)
    graph = nx.relabel_nodes(graph, {v: rng.choice([v, f"n{v}", (v, "x")])
                                     for v in graph})
    nodes = list(graph)
    if rng.random() < 0.3:
        graph.add_edge(nodes[0], nodes[0])
    return rng, graph, nodes


@pytest.mark.parametrize("seed", range(150))
def test_verdicts_and_messages_match_the_view_walk(seed):
    rng, graph, nodes = random_case(seed)
    pool = nodes + ["ghost", 99]
    chosen = rng.sample(pool, rng.randrange(len(pool) + 1))
    for maximal in (False, True):
        assert message_of(check_independent_set, graph, chosen, maximal) \
            == reference_independent_set(graph, chosen, maximal)
    edges = []
    for _ in range(rng.randrange(5)):
        u, w = rng.choice(nodes), rng.choice(nodes)
        edges.append(frozenset((u, w)) if u != w else (u, w))
    edges += rng.sample(list(graph.edges), min(2, graph.number_of_edges()))
    for maximal in (False, True):
        assert message_of(check_matching, graph, edges, maximal) \
            == reference_matching(graph, edges, maximal)
    colors = {v: rng.randrange(4) for v in nodes if rng.random() < 0.97}
    for palette in (None, 3):
        assert message_of(check_coloring, graph, colors, palette) \
            == reference_coloring(graph, colors, palette)
