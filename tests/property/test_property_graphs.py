"""Property-based tests for the graph substrate (hypothesis)."""

import io
import json

import numpy as np
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.graphs import (
    connected_components_bfs,
    connected_components_unionfind,
    from_edge_list,
    read_edge_list,
    write_edge_list,
)
from repro.graphs.io import _scan_lines

settings.register_profile("repro", max_examples=40, deadline=None)
settings.load_profile("repro")


edge_lists = st.lists(
    st.tuples(st.integers(0, 30), st.integers(0, 30)),
    min_size=0,
    max_size=120,
)


@given(edge_lists)
def test_graph_is_simple_and_symmetric(edges):
    graph = from_edge_list(edges, num_vertices=31)
    # No self loops, neighbor lists strictly increasing.
    for v in range(graph.num_vertices):
        neighbors = graph.neighbors(v)
        assert v not in neighbors
        assert np.all(np.diff(neighbors) > 0)
    # Symmetry: u in N(v) iff v in N(u).
    for u, v in graph.edges():
        assert graph.has_edge(u, v) and graph.has_edge(v, u)


@given(edge_lists)
def test_edge_count_matches_unique_undirected_pairs(edges):
    graph = from_edge_list(edges, num_vertices=31)
    expected = {(min(u, v), max(u, v)) for u, v in edges if u != v}
    assert graph.num_edges == len(expected)
    assert graph.num_arcs == 2 * len(expected)
    assert int(graph.degrees.sum()) == graph.num_arcs


@given(edge_lists)
def test_edge_ids_are_a_bijection(edges):
    graph = from_edge_list(edges, num_vertices=31)
    seen = set()
    for u, v in graph.edges():
        edge = graph.edge_id(u, v)
        assert edge not in seen
        seen.add(edge)
    assert seen == set(range(graph.num_edges))


@given(edge_lists)
def test_degree_orientation_keeps_every_edge_once(edges):
    graph = from_edge_list(edges, num_vertices=31)
    oriented = graph.degree_oriented_csr()
    assert oriented.indices.shape[0] == graph.num_edges
    assert sorted(oriented.edge_ids.tolist()) == list(range(graph.num_edges))


@given(edge_lists)
def test_components_bfs_equals_unionfind(edges):
    graph = from_edge_list(edges, num_vertices=31)
    bfs = connected_components_bfs(graph)
    unionfind = connected_components_unionfind(graph)
    mapping = {}
    for a, b in zip(bfs.tolist(), unionfind.tolist()):
        assert mapping.setdefault(a, b) == b


@given(
    edge_lists,
    st.one_of(st.none(), st.floats(0.1, 5.0)),
)
def test_edge_list_io_roundtrip(tmp_path_factory, edges, weight):
    graph = from_edge_list(
        edges,
        num_vertices=31,
        weights=None if weight is None else [weight] * len(edges),
    )
    path = tmp_path_factory.mktemp("io") / "graph.txt"
    write_edge_list(graph, path)
    loaded = read_edge_list(path, num_vertices=31)
    if graph.num_edges == 0:
        # An edge list file cannot record "weighted" for a graph with no
        # edges, so only the structure is compared in that corner case.
        assert loaded.num_edges == 0 and loaded.num_vertices == graph.num_vertices
    else:
        assert loaded == graph


def reference_read(text):
    """The edge-list line semantics, spelled out.

    Returns ``(n, {(u, v): weight}, weighted)``: canonical edges in
    ``(u, v)`` order, self-loops dropped, the last weight of a duplicate
    kept, and ``n`` one past the largest id any line names.
    """
    edges, weighted, largest = {}, False, -1
    for line in text.replace("\r\n", "\n").split("\n"):
        line = line.strip()
        if not line or line.startswith(("#", "%")):
            continue
        parts = line.split()
        u, v = int(parts[0]), int(parts[1])
        largest = max(largest, u, v)
        weighted = weighted or len(parts) >= 3
        if u != v:
            edges[min(u, v), max(u, v)] = float(parts[2]) if len(parts) >= 3 else 1.0
    return largest + 1, dict(sorted(edges.items())), weighted


@st.composite
def edge_list_texts(draw):
    """Valid edge-list text: comments, blanks, CRLF, tabs, odd spellings."""
    columns = draw(st.sampled_from(["2", "3", "mixed"]))
    newline = draw(st.sampled_from(["\n", "\r\n"]))

    def spell(vertex):
        if vertex >= 10 and draw(st.booleans()):
            return f"{vertex // 10}_{vertex % 10}"
        return draw(st.sampled_from(["", "+", "00"])) + str(vertex)

    lines = []
    for _ in range(draw(st.integers(0, 40))):
        kind = draw(st.sampled_from(["edge"] * 4 + ["comment", "blank"]))
        if kind == "comment":
            lines.append(draw(st.sampled_from(["# header", "% 1 2", "  #", "%"])))
        elif kind == "blank":
            lines.append(draw(st.sampled_from(["", "  ", "\t"])))
        else:
            parts = [spell(draw(st.integers(0, 12))), spell(draw(st.integers(0, 12)))]
            if columns == "3" or (columns == "mixed" and draw(st.booleans())):
                weight = draw(st.floats(-10, 10, allow_nan=False))
                parts.append(draw(st.sampled_from([repr(weight), f"{weight:.3g}", "+.5", "1_0.5"])))
            separator = draw(st.sampled_from([" ", "\t", "  ", " \t"]))
            lines.append(draw(st.sampled_from(["", " ", "\t"])) + separator.join(parts))
    return newline.join(lines) + draw(st.sampled_from(["", newline]))


GRAPH_COLUMNS = ("indptr", "indices", "arc_weights", "arc_edge_ids", "edge_u", "edge_v", "edge_weights")


@given(edge_list_texts())
def test_bulk_reader_equals_the_line_semantics(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("bulk") / "graph.txt"
    path.write_bytes(text.encode())
    sink = io.StringIO()
    previous = obs.install(tracer=obs.Tracer(sink))
    try:
        graph = read_edge_list(path)
    finally:
        obs.install(tracer=previous[0])
    # The line scan runs only for files without one width for every data line.
    widths = {
        len(line.split())
        for line in text.replace("\r\n", "\n").split("\n")
        if line.strip() and not line.strip().startswith(("#", "%"))
    }
    assert json.loads(sink.getvalue())["attrs"]["located"] == (len(widths) != 1)
    n, edges, weighted = reference_read(text)
    assert graph.num_vertices == n
    assert list(zip(graph.edge_u.tolist(), graph.edge_v.tolist())) == list(edges)
    if weighted:
        assert graph.edge_weights.tolist() == list(edges.values())
    else:
        assert graph.edge_weights is None
    arc_sources = graph.arc_sources()
    assert np.array_equal(graph.edge_u[graph.arc_edge_ids], np.minimum(arc_sources, graph.indices))
    assert np.array_equal(graph.edge_v[graph.arc_edge_ids], np.maximum(arc_sources, graph.indices))
    # The bulk parse and the line scan build the same bytes, dtypes included.
    ids, weights = _scan_lines(path)
    scanned = from_edge_list(ids, weights=weights)
    for column in GRAPH_COLUMNS:
        ours, theirs = getattr(graph, column), getattr(scanned, column)
        assert (ours is None) == (theirs is None)
        if ours is not None:
            assert ours.dtype == theirs.dtype and ours.tobytes() == theirs.tobytes()
