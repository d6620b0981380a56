"""Tests for the output validators."""

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
        import networkx as nx

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
