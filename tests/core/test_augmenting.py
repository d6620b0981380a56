"""Tests for the augmenting-path machinery (Hopcroft–Karp framework)."""

import itertools

import pytest

from repro.core import (
    augment_with_disjoint_paths,
    canonical_path,
    enumerate_augmenting_paths,
    flip_augmenting_path,
    shortest_augmenting_path_length,
    verify_hk_phase,
)
from repro.errors import AlgorithmContractViolation
from repro.graphs import (
    check_matching,
    cycle_graph,
    gnp_graph,
    is_augmenting_path,
    path_graph,
)


def brute_force_paths(graph, matching, length):
    """Reference enumeration by checking every vertex sequence."""

    found = set()
    for nodes in itertools.permutations(graph.nodes, length + 1):
        if is_augmenting_path(graph, matching, nodes):
            found.add(canonical_path(nodes))
    return found


class TestEnumeration:
    def test_length_one_paths_are_free_edges(self):
        g = path_graph(4)
        paths = enumerate_augmenting_paths(g, set(), 1)
        assert {frozenset(p) for p in paths} == {
            frozenset(e) for e in g.edges
        }

    @pytest.mark.parametrize("length", [1, 3])
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_brute_force(self, length, seed):
        g = gnp_graph(8, 0.35, seed=seed)
        matching = set()
        if length == 3:
            # Seed a small matching so longer paths exist.
            for u, v in list(g.edges)[:2]:
                if not ({u, v} & {x for e in matching for x in e}):
                    matching.add(frozenset((u, v)))
        ours = set(enumerate_augmenting_paths(g, matching, length))
        reference = brute_force_paths(g, matching, length)
        assert ours == reference

    def test_even_length_rejected(self):
        with pytest.raises(AlgorithmContractViolation):
            enumerate_augmenting_paths(path_graph(3), set(), 2)

    def test_active_restriction(self):
        g = path_graph(2)
        assert enumerate_augmenting_paths(g, set(), 1, active={0}) == []

    def test_cap_truncates(self):
        g = gnp_graph(12, 0.5, seed=1)
        paths = enumerate_augmenting_paths(g, set(), 1, cap=3)
        assert len(paths) == 3

    def test_path_graph_length_three(self):
        g = path_graph(4)
        matching = {frozenset((1, 2))}
        paths = enumerate_augmenting_paths(g, matching, 3)
        assert paths == [canonical_path((0, 1, 2, 3))]


class TestFlip:
    def test_flip_grows_matching_by_one(self):
        matching = {frozenset((1, 2))}
        flipped = flip_augmenting_path(matching, (0, 1, 2, 3))
        assert flipped == {frozenset((0, 1)), frozenset((2, 3))}

    def test_flip_free_edge(self):
        flipped = flip_augmenting_path(set(), (0, 1))
        assert flipped == {frozenset((0, 1))}

    def test_flip_rejects_wrong_alternation(self):
        with pytest.raises(AlgorithmContractViolation):
            flip_augmenting_path({frozenset((0, 1))}, (0, 1))

    def test_disjoint_augmentation(self):
        g = path_graph(8)
        paths = [(0, 1), (3, 4), (6, 7)]
        matching = augment_with_disjoint_paths(set(), paths)
        check_matching(g, [tuple(e) for e in matching])
        assert len(matching) == 3

    def test_intersecting_paths_rejected(self):
        with pytest.raises(AlgorithmContractViolation):
            augment_with_disjoint_paths(set(), [(0, 1), (1, 2)])


class TestShortestLength:
    def test_empty_matching_has_length_one(self):
        assert shortest_augmenting_path_length(path_graph(4), set()) == 1

    def test_after_maximal_matching_longer(self):
        g = path_graph(4)
        matching = {frozenset((1, 2))}
        assert shortest_augmenting_path_length(g, matching) == 3

    def test_perfect_matching_has_none(self):
        g = path_graph(4)
        matching = {frozenset((0, 1)), frozenset((2, 3))}
        assert shortest_augmenting_path_length(g, matching) is None

    def test_hk_length_increase_fact(self):
        """Flipping a maximal set of shortest paths raises the shortest
        augmenting-path length (the classical HK fact)."""

        g = cycle_graph(10)
        length_before = shortest_augmenting_path_length(g, set())
        paths = enumerate_augmenting_paths(g, set(), 1)
        chosen = []
        used = set()
        for p in paths:
            if not (used & set(p)):
                chosen.append(p)
                used |= set(p)
        # make maximal greedily
        matching = augment_with_disjoint_paths(set(), chosen)
        length_after = shortest_augmenting_path_length(g, matching)
        assert length_before == 1
        assert length_after is None or length_after > 1


class TestVerifyPhase:
    def test_accepts_valid(self):
        g = path_graph(4)
        verify_hk_phase(g, set(), [(0, 1), (2, 3)])

    def test_rejects_invalid(self):
        g = path_graph(4)
        with pytest.raises(AlgorithmContractViolation):
            verify_hk_phase(g, set(), [(0, 1, 2)])
