"""Tests for graph file I/O (edge list and adjacency formats)."""

import io
import json
import re

import pytest

from repro import obs
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

    # Non-finite weights are located by the test above.
    @pytest.mark.parametrize(
        ("text", "line"),
        [
            ("0 1\n2\n3 4 5\n", 2),  # six tokens on three lines: not 2 columns
            ("0 1\n1 two\n", 2),
            ("# header\n\n% note\n0 1\n1 2 x\n", 5),
            ("0 1\n0 12345678901234567890\n", 2),
            ("0 1\n-3 2\n", 2),
            ("0 1\r\n1 2\r\n2\r\n", 3),
            ("0\r1 2\n", 1),  # a lone carriage return ends a line in text mode
        ],
    )
    def test_malformed_file_names_its_first_bad_line(self, tmp_path, text, line):
        path = tmp_path / "bad.txt"
        path.write_bytes(text.encode())
        with pytest.raises(ValueError, match=re.escape(f"{path}:{line}: ")):
            read_edge_list(path)

    def test_read_is_traced(self, tmp_path):
        path = tmp_path / "graph.txt"
        path.write_text("# header\n0 1\n1 2\n2 0\n0 2\n")
        mixed = tmp_path / "mixed.txt"
        mixed.write_text("0 1\n1 2 0.5\n")
        sink = io.StringIO()
        previous = obs.install(tracer=obs.Tracer(sink))
        try:
            read_edge_list(path)
            read_edge_list(mixed)
        finally:
            obs.install(tracer=previous[0])
        spans = [json.loads(line) for line in sink.getvalue().splitlines()]
        assert [span["name"] for span in spans] == ["graphs.read"] * 2
        assert [span["attrs"] for span in spans] == [
            {"bytes": path.stat().st_size, "edges": 3, "located": False},
            {"bytes": mixed.stat().st_size, "edges": 2, "located": True},
        ]

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

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "short.adj"
        path.write_text("AdjacencyGraph\n3\n2\n0\n1\n")
        with pytest.raises(ValueError, match="expected 7 values after the header, got 4"):
            read_adjacency(path)

    def test_trailing_values_rejected(self, tmp_path):
        path = tmp_path / "long.adj"
        path.write_text("AdjacencyGraph\n2\n2\n0\n1\n1\n0\n7\n7\n")
        with pytest.raises(ValueError, match="expected 6 values after the header, got 8"):
            read_adjacency(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.adj"
        path.write_text("")
        with pytest.raises(ValueError):
            read_adjacency(path)
