"""Tests for graph builders (edge lists, weighted edge lists, fixed shapes)."""

import numpy as np
import pytest

from repro.graphs import (
    complete_graph,
    empty_graph,
    from_edge_list,
    from_weighted_edge_list,
)


class TestFromEdgeList:
    def test_basic(self):
        graph = from_edge_list([(0, 1), (1, 2)])
        assert graph.num_vertices == 3
        assert graph.num_edges == 2

    def test_duplicate_edges_collapsed(self):
        graph = from_edge_list([(0, 1), (1, 0), (0, 1)])
        assert graph.num_edges == 1

    def test_self_loops_dropped(self):
        graph = from_edge_list([(0, 0), (0, 1), (2, 2)], num_vertices=3)
        assert graph.num_edges == 1

    def test_orientation_ignored(self):
        a = from_edge_list([(2, 0), (1, 2)])
        b = from_edge_list([(0, 2), (2, 1)])
        assert a == b

    def test_explicit_num_vertices_adds_isolated(self):
        graph = from_edge_list([(0, 1)], num_vertices=5)
        assert graph.num_vertices == 5
        assert graph.degree(4) == 0

    def test_num_vertices_too_small_rejected(self):
        with pytest.raises(ValueError):
            from_edge_list([(0, 5)], num_vertices=3)

    def test_negative_ids_rejected(self):
        with pytest.raises(ValueError):
            from_edge_list([(-1, 2)])

    def test_bad_shape_rejected(self):
        with pytest.raises(ValueError):
            from_edge_list(np.array([[0, 1, 2]]))

    def test_empty_edge_list(self):
        graph = from_edge_list([], num_vertices=4)
        assert graph.num_vertices == 4 and graph.num_edges == 0

    def test_duplicate_weighted_edge_keeps_last_weight(self):
        graph = from_edge_list([(0, 1), (1, 0)], weights=[0.3, 0.9])
        assert graph.edge_weight(0, 1) == 0.9

    def test_weights_length_mismatch(self):
        with pytest.raises(ValueError):
            from_edge_list([(0, 1)], weights=[1.0, 2.0])

    def test_numpy_input(self):
        edges = np.array([[0, 1], [1, 2], [2, 3]])
        assert from_edge_list(edges).num_edges == 3

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_weights_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            from_edge_list([(0, 1), (1, 2)], weights=[1.0, bad])


class TestOtherBuilders:
    def test_from_weighted_edge_list(self):
        graph = from_weighted_edge_list([(0, 1, 0.5), (1, 2, 2.0)])
        assert graph.is_weighted
        assert graph.edge_weight(1, 2) == 2.0

    def test_empty_graph(self):
        graph = empty_graph(7)
        assert graph.num_vertices == 7
        assert graph.num_edges == 0

    def test_complete_graph(self):
        graph = complete_graph(5)
        assert graph.num_edges == 10
        assert all(graph.degree(v) == 4 for v in range(5))

    def test_complete_graph_weighted(self):
        graph = complete_graph(3, weight=0.5)
        assert graph.is_weighted
        assert graph.edge_weight(0, 2) == 0.5
