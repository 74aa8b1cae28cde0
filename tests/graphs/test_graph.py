"""Tests for the CSR Graph data structure."""

import numpy as np
import pytest

from repro.graphs import Graph, from_edge_list, from_weighted_edge_list


class TestValidation:
    def test_indptr_must_start_at_zero(self):
        with pytest.raises(ValueError):
            Graph(np.array([1, 2]), np.array([0]))

    def test_indptr_must_be_monotone(self):
        with pytest.raises(ValueError):
            Graph(np.array([0, 2, 1]), np.array([1, 0, 0]))

    def test_indptr_must_match_indices_length(self):
        with pytest.raises(ValueError):
            Graph(np.array([0, 3]), np.array([1]))

    def test_neighbor_ids_in_range(self):
        with pytest.raises(ValueError):
            Graph(np.array([0, 1]), np.array([5]))

    def test_no_self_loops(self):
        with pytest.raises(ValueError):
            Graph(np.array([0, 1, 2]), np.array([0, 0]))

    def test_neighbor_lists_sorted_no_duplicates(self):
        with pytest.raises(ValueError):
            Graph(np.array([0, 2, 3, 4]), np.array([2, 1, 0, 0]))

    def test_weights_must_align(self):
        with pytest.raises(ValueError):
            Graph(np.array([0, 1, 2]), np.array([1, 0]), np.array([1.0]))

    # Defects inside a middle vertex's list (vertex 1 of 0-1-2), where a
    # per-list check and a segmented whole-array check can disagree.
    @pytest.mark.parametrize(
        ("indptr", "indices", "message"),
        [
            ([0, 1, 4, 5], [1, 0, 2, 2, 1], "neighbor list of vertex 1 must be strictly"),
            ([0, 1, 3, 4], [1, 2, 0, 1], "neighbor list of vertex 1 must be strictly"),
            ([0, 1, 4, 5], [1, 0, 1, 2, 1], "self-loop at vertex 1"),
            # A self-loop outranks an ordering fault in the same list ...
            ([0, 1, 4, 5], [1, 2, 1, 0, 1], "self-loop at vertex 1"),
            # ... but not an ordering fault in an earlier list.
            ([0, 2, 4, 6], [2, 1, 1, 2, 0, 1], "neighbor list of vertex 0 must be strictly"),
        ],
    )
    def test_first_bad_vertex_is_named(self, indptr, indices, message):
        with pytest.raises(ValueError, match=message):
            Graph(np.array(indptr), np.array(indices))

    def test_list_boundaries_may_step_down(self):
        # Triangle: indices 1 2 | 0 2 | 0 1 decrease only across lists.
        graph = Graph(np.array([0, 2, 4, 6]), np.array([1, 2, 0, 2, 0, 1]))
        assert graph.arc_edge_ids.tolist() == [0, 1, 0, 2, 1, 2]

    def test_lists_must_be_symmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            Graph(np.array([0, 1, 2, 2]), np.array([1, 2]))


class TestAccessors:
    def test_counts(self, paper_graph):
        assert paper_graph.num_vertices == 11
        assert paper_graph.num_edges == 13
        assert paper_graph.num_arcs == 26

    def test_degrees(self, paper_graph):
        degrees = paper_graph.degrees
        assert degrees.tolist() == [2, 3, 2, 4, 2, 3, 3, 3, 2, 1, 1]
        assert paper_graph.degree(3) == 4
        assert paper_graph.max_degree == 4

    def test_neighbors_sorted(self, paper_graph):
        assert paper_graph.neighbors(3).tolist() == [0, 1, 2, 4]

    def test_neighbor_weights_default_to_one(self, paper_graph):
        assert paper_graph.neighbor_weights(3).tolist() == [1.0] * 4

    def test_has_edge(self, paper_graph):
        assert paper_graph.has_edge(0, 1)
        assert paper_graph.has_edge(1, 0)
        assert not paper_graph.has_edge(0, 5)
        assert not paper_graph.has_edge(2, 2)

    def test_edge_list_is_canonical(self, paper_graph):
        edge_u, edge_v = paper_graph.edge_list()
        assert np.all(edge_u < edge_v)
        assert edge_u.shape[0] == 13

    def test_edges_iterator_matches_edge_list(self, paper_graph):
        edge_u, edge_v = paper_graph.edge_list()
        assert list(paper_graph.edges()) == list(zip(edge_u.tolist(), edge_v.tolist()))

    def test_edge_id_roundtrip(self, paper_graph):
        edge_u, edge_v = paper_graph.edge_list()
        for i, (u, v) in enumerate(zip(edge_u.tolist(), edge_v.tolist())):
            assert paper_graph.edge_id(u, v) == i
            assert paper_graph.edge_id(v, u) == i

    def test_edge_id_missing_edge_raises(self, paper_graph):
        with pytest.raises(KeyError):
            paper_graph.edge_id(0, 10)

    def test_arc_edge_ids_consistent(self, paper_graph):
        sources = paper_graph.arc_sources()
        for position in range(paper_graph.num_arcs):
            u = int(sources[position])
            v = int(paper_graph.indices[position])
            assert paper_graph.arc_edge_ids[position] == paper_graph.edge_id(u, v)

    def test_closed_neighborhood_contains_self(self, paper_graph):
        closed = paper_graph.closed_neighborhood(3)
        assert closed.tolist() == [0, 1, 2, 3, 4]

    def test_arc_range(self, paper_graph):
        start, end = paper_graph.arc_range(0)
        assert end - start == paper_graph.degree(0)


class TestWeighted:
    def test_edge_weight_lookup(self):
        graph = from_weighted_edge_list([(0, 1, 0.5), (1, 2, 0.25)])
        assert graph.is_weighted
        assert graph.edge_weight(0, 1) == 0.5
        assert graph.edge_weight(2, 1) == 0.25

    def test_unweighted_edge_weight_is_one(self, paper_graph):
        assert paper_graph.edge_weight(0, 1) == 1.0

    def test_adjacency_matrix_symmetric(self):
        graph = from_weighted_edge_list([(0, 1, 0.5), (1, 2, 0.25)])
        matrix = graph.adjacency_matrix()
        assert matrix[0, 1] == matrix[1, 0] == 0.5
        assert matrix[0, 0] == 0.0

    def test_adjacency_matrix_self_loops(self, triangle_graph):
        matrix = triangle_graph.adjacency_matrix(include_self_loops=True)
        assert np.allclose(np.diag(matrix), 1.0)


class TestDerived:
    def test_degree_oriented_halves_arcs(self, paper_graph):
        oriented = paper_graph.degree_oriented_csr()
        assert oriented.indices.shape[0] == paper_graph.num_edges
        # Every arc points to a vertex of equal-or-higher degree (ties by id).
        sources = np.repeat(np.arange(paper_graph.num_vertices), np.diff(oriented.indptr))
        degrees = paper_graph.degrees
        for u, v in zip(sources, oriented.indices):
            rank_u = (degrees[u], u)
            rank_v = (degrees[v], v)
            assert rank_u < rank_v

    def test_degree_oriented_edge_ids_valid(self, paper_graph):
        oriented = paper_graph.degree_oriented_csr()
        sources = np.repeat(np.arange(paper_graph.num_vertices), np.diff(oriented.indptr))
        for u, v, edge in zip(sources, oriented.indices, oriented.edge_ids):
            assert paper_graph.edge_id(int(u), int(v)) == int(edge)

    def test_degree_ordered_arcs_matches_oriented(self, paper_graph):
        indptr, indices = paper_graph.degree_ordered_arcs()
        oriented = paper_graph.degree_oriented_csr()
        assert np.array_equal(indptr, oriented.indptr)
        assert np.array_equal(indices, oriented.indices)

    def test_subgraph_edge_mask(self, paper_graph):
        mask = np.zeros(11, dtype=bool)
        mask[[0, 1, 2, 3]] = True
        edge_mask = paper_graph.subgraph_edge_mask(mask)
        assert int(edge_mask.sum()) == 5  # the 5 edges inside {0,1,2,3}

    def test_subgraph_edge_mask_wrong_length(self, paper_graph):
        with pytest.raises(ValueError):
            paper_graph.subgraph_edge_mask(np.zeros(3, dtype=bool))


class TestEquality:
    def test_equal_graphs(self):
        a = from_edge_list([(0, 1), (1, 2)])
        b = from_edge_list([(1, 2), (0, 1)])
        assert a == b

    def test_different_structure(self):
        a = from_edge_list([(0, 1)])
        b = from_edge_list([(0, 2)])
        assert a != b

    def test_weighted_vs_unweighted(self):
        a = from_edge_list([(0, 1)])
        b = from_edge_list([(0, 1)], weights=[1.0])
        assert a != b

    def test_not_equal_to_other_types(self):
        assert from_edge_list([(0, 1)]) != "graph"


class TestLocateNeighbors:
    """The batched adjacency-probe helper behind every scalar probe."""

    def test_matches_scalar_searchsorted(self, paper_graph):
        us, vs = [], []
        for u in range(paper_graph.num_vertices):
            for v in range(paper_graph.num_vertices):
                if u != v:
                    us.append(u)
                    vs.append(v)
        us, vs = np.array(us), np.array(vs)
        positions, found = paper_graph.locate_neighbors(us, vs)
        for u, v, position, hit in zip(
            us.tolist(), vs.tolist(), positions.tolist(), found.tolist()
        ):
            neighbors = paper_graph.neighbors(u)
            expected = int(np.searchsorted(neighbors, v))
            assert position - int(paper_graph.indptr[u]) == expected
            assert hit == paper_graph.has_edge(u, v)

    def test_small_and_large_batches_agree(self, paper_graph):
        us = np.array([0, 1, 2, 3, 4, 5, 6, 7])
        vs = np.array([1, 0, 5, 9, 10, 2, 7, 6])
        large_positions, large_found = paper_graph.locate_neighbors(us, vs)
        for i in range(us.size):
            position, hit = paper_graph.locate_neighbors(us[i:i + 1], vs[i:i + 1])
            assert position[0] == large_positions[i]
            assert hit[0] == large_found[i]

    def test_edge_id_routes_through_helper(self, paper_graph):
        edge_u, edge_v = paper_graph.edge_list()
        for edge, (u, v) in enumerate(zip(edge_u.tolist(), edge_v.tolist())):
            assert paper_graph.edge_id(u, v) == edge
            assert paper_graph.edge_id(v, u) == edge


class TestEdgeIds:
    def test_direct_construction_matches_the_builder(self, paper_graph):
        direct = Graph(paper_graph.indptr, paper_graph.indices)
        for column in ("arc_edge_ids", "edge_u", "edge_v"):
            assert np.array_equal(getattr(direct, column), getattr(paper_graph, column))


class TestFromIndexColumns:
    def test_reconstruction_matches_original(self, paper_graph):
        rebuilt = Graph.from_index_columns(
            paper_graph.indptr,
            paper_graph.indices,
            None,
            paper_graph.arc_edge_ids,
        )
        assert rebuilt == paper_graph
        assert np.array_equal(rebuilt.arc_edge_ids, paper_graph.arc_edge_ids)
        assert np.array_equal(rebuilt.edge_u, paper_graph.edge_u)
        assert np.array_equal(rebuilt.edge_v, paper_graph.edge_v)

    def test_misaligned_arc_edge_ids_rejected(self, paper_graph):
        with pytest.raises(ValueError):
            Graph.from_index_columns(
                paper_graph.indptr,
                paper_graph.indices,
                None,
                paper_graph.arc_edge_ids[:-1],
            )
