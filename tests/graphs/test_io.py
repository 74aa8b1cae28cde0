"""Tests for graph file I/O (edge list and adjacency formats)."""

import pytest

from repro.graphs import (
    from_edge_list,
    from_weighted_edge_list,
    read_adjacency,
    read_edge_list,
    write_adjacency,
    write_edge_list,
)


class TestEdgeListFormat:
    def test_roundtrip_unweighted(self, tmp_path, paper_graph):
        path = tmp_path / "graph.txt"
        write_edge_list(paper_graph, path)
        assert read_edge_list(path) == paper_graph

    def test_roundtrip_weighted(self, tmp_path):
        graph = from_weighted_edge_list([(0, 1, 0.25), (1, 2, 0.75)])
        path = tmp_path / "weighted.txt"
        write_edge_list(graph, path)
        loaded = read_edge_list(path)
        assert loaded.is_weighted
        assert loaded.edge_weight(0, 1) == pytest.approx(0.25)

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "comments.txt"
        path.write_text("# a comment\n\n% another\n0 1\n1 2\n")
        graph = read_edge_list(path)
        assert graph.num_edges == 2

    def test_malformed_line_raises(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0\n")
        with pytest.raises(ValueError):
            read_edge_list(path)

    @pytest.mark.parametrize("weight", ["nan", "inf", "-inf"])
    def test_non_finite_weight_raises_with_location(self, tmp_path, weight):
        path = tmp_path / "weights.txt"
        path.write_text(f"0 1 1.0\n1 2 {weight}\n")
        with pytest.raises(ValueError, match="weights.txt:2"):
            read_edge_list(path)

    def test_num_vertices_override(self, tmp_path):
        path = tmp_path / "small.txt"
        path.write_text("0 1\n")
        graph = read_edge_list(path, num_vertices=10)
        assert graph.num_vertices == 10


class TestAdjacencyFormat:
    def test_roundtrip_unweighted(self, tmp_path, paper_graph):
        path = tmp_path / "graph.adj"
        write_adjacency(paper_graph, path)
        assert read_adjacency(path) == paper_graph

    def test_roundtrip_weighted(self, tmp_path):
        graph = from_weighted_edge_list([(0, 1, 0.5), (0, 2, 0.1), (1, 2, 0.9)])
        path = tmp_path / "weighted.adj"
        write_adjacency(graph, path)
        loaded = read_adjacency(path)
        assert loaded == graph

    def test_header_is_recognisable(self, tmp_path):
        graph = from_edge_list([(0, 1)])
        path = tmp_path / "graph.adj"
        write_adjacency(graph, path)
        assert path.read_text().splitlines()[0] == "AdjacencyGraph"

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.adj"
        path.write_text("NotAGraph\n1\n0\n")
        with pytest.raises(ValueError):
            read_adjacency(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.adj"
        path.write_text("")
        with pytest.raises(ValueError):
            read_adjacency(path)
