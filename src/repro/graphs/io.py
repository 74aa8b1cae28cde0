"""Reading and writing graphs in simple text formats.

Two formats are supported:

* **edge list**: one edge per line, ``u v`` or ``u v weight``; lines starting
  with ``#`` or ``%`` are comments.  This covers the SNAP datasets (Orkut,
  Friendster) and the HumanBase "top edges" files the paper uses.
* **adjacency**: a GBBS-style flat adjacency format -- a header line
  (``AdjacencyGraph`` or ``WeightedAdjacencyGraph``), then ``n``, ``2m``,
  ``n`` offsets, ``2m`` neighbor ids, and for weighted graphs ``2m`` weights,
  one number per line.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from .. import obs
from .builders import from_edge_list
from .graph import Graph

_COMMENT_PREFIXES = ("#", "%")
#: Printable ASCII and ASCII whitespace: bytes the bulk parse reads as text mode would.
_BULK_BYTES = bytes(range(0x20, 0x7F)) + b"\t\n\r\x0b\x0c"
#: int64's largest value, where C parsing saturates; ids must stay below it.
_MAX_ID = int(np.iinfo(np.int64).max)
ADJACENCY_HEADER = "AdjacencyGraph"
WEIGHTED_ADJACENCY_HEADER = "WeightedAdjacencyGraph"


def read_edge_list(path: str | Path, *, num_vertices: int | None = None) -> Graph:
    """Read an (optionally weighted) edge-list text file into a graph.

    Files whose data lines all have two or three columns are parsed in bulk.
    Others are read line by line, which raises ``ValueError`` naming the
    file and line of a malformed line, a negative id or a non-finite weight.
    """
    path = Path(path)
    with obs.span("graphs.read") as span:
        data = path.read_bytes()
        columns = _bulk_columns(data)
        ids, weights = _scan_lines(path) if columns is None else columns
        graph = from_edge_list(ids, num_vertices=num_vertices, weights=weights)
        span.attrs.update(bytes=len(data), edges=graph.num_edges, located=columns is None)
    return graph


def _bulk_columns(data: bytes) -> tuple[np.ndarray, np.ndarray | None] | None:
    """``(ids, weights)`` of a regular file, or ``None`` for the line scan."""
    # A lone '\r' is a line break in text mode; most files hold no '\r' at all.
    if data.translate(None, _BULK_BYTES) or (
        b"\r" in data and data.count(b"\r") != data.count(b"\r\n")
    ):
        return None
    buf = np.frombuffer(data, dtype=np.uint8)
    solid = buf > 0x20
    starts = solid & ~np.concatenate(([False], solid[:-1]))
    # Token starts and newlines in file order; a line's tokens lie between newlines.
    events = np.flatnonzero(starts | (buf == 0x0A))
    breaks = np.flatnonzero(~starts[events])
    bounds = np.concatenate(([-1], breaks, [events.size]))
    counts = np.diff(bounds) - 1
    lines = np.flatnonzero(counts)
    first = buf[events[bounds[lines] + 1]]
    comment = (first == ord("#")) | (first == ord("%"))
    widths = counts[lines[~comment]]
    if not widths.size or widths[0] not in (2, 3) or np.any(widths != widths[0]):
        return None
    width = int(widths[0])
    if comment.any():
        keep = np.ones(counts.size, dtype=bool)
        keep[lines[comment]] = False
        line_sizes = np.diff(np.concatenate(([0], events[breaks] + 1, [buf.size])))
        data = buf[np.repeat(keep, line_sizes)].tobytes()
    weights = None
    try:
        if width == 2 and not data.translate(None, b"0123456789 \t\n\r\x0b\x0c"):
            ids = np.fromstring(data, dtype=np.int64, sep=" ")  # plain digits only
        else:
            tokens = data.split()
            if width == 3:
                weights = np.array(tokens[2::3], dtype=np.float64)
                del tokens[2::3]
            ids = np.array(tokens, dtype=np.int64)
    except (ValueError, OverflowError):
        return None
    finite = weights is None or np.isfinite(weights).all()
    if not finite or ids.min() < 0 or ids.max() == _MAX_ID:
        return None
    return ids.reshape(-1, 2), weights


def _scan_lines(path: Path) -> tuple[list, list | None]:
    """Line-by-line reading: mixed-column files, and the first bad line's location."""
    edges: list[tuple[int, int]] = []
    weights: list[float] = []
    saw_weight = False
    with path.open() as handle:
        for line_number, raw_line in enumerate(handle, start=1):
            line = raw_line.strip()
            if not line or line.startswith(_COMMENT_PREFIXES):
                continue
            parts = line.split()
            try:
                u, v = int(parts[0]), int(parts[1])
                weight = float(parts[2]) if len(parts) >= 3 else 1.0
            except (IndexError, ValueError):
                raise ValueError(
                    f"{path}:{line_number}: expected 'u v [weight]', got {line!r}"
                ) from None
            if not (0 <= u < _MAX_ID and 0 <= v < _MAX_ID):
                raise ValueError(
                    f"{path}:{line_number}: vertex ids must be non-negative "
                    f"and below 2**63 - 1, got {line!r}"
                )
            if len(parts) >= 3 and not math.isfinite(weight):
                raise ValueError(
                    f"{path}:{line_number}: edge weights must be finite, got {line!r}"
                )
            edges.append((u, v))
            weights.append(weight)
            saw_weight = saw_weight or len(parts) >= 3
    return edges, weights if saw_weight else None


def write_edge_list(graph: Graph, path: str | Path) -> None:
    """Write the graph as an edge list (with weights when present)."""
    path = Path(path)
    edge_u, edge_v = graph.edge_list()
    with path.open("w") as handle:
        handle.write(f"# undirected simple graph: {graph.num_vertices} vertices, "
                     f"{graph.num_edges} edges\n")
        if graph.is_weighted:
            for u, v, w in zip(edge_u.tolist(), edge_v.tolist(), graph.edge_weights.tolist()):
                handle.write(f"{u} {v} {w:.10g}\n")
        else:
            for u, v in zip(edge_u.tolist(), edge_v.tolist()):
                handle.write(f"{u} {v}\n")


def write_adjacency(graph: Graph, path: str | Path) -> None:
    """Write the graph in the GBBS-style flat adjacency format."""
    path = Path(path)
    lines: list[str] = []
    if graph.is_weighted:
        lines.append(WEIGHTED_ADJACENCY_HEADER)
    else:
        lines.append(ADJACENCY_HEADER)
    lines.append(str(graph.num_vertices))
    lines.append(str(graph.num_arcs))
    lines.extend(str(int(offset)) for offset in graph.indptr[:-1])
    lines.extend(str(int(neighbor)) for neighbor in graph.indices)
    if graph.is_weighted:
        lines.extend(f"{float(weight):.10g}" for weight in graph.arc_weights)
    path.write_text("\n".join(lines) + "\n")


def read_adjacency(path: str | Path) -> Graph:
    """Read a graph written by :func:`write_adjacency`."""
    path = Path(path)
    tokens = path.read_text().split()
    if not tokens:
        raise ValueError(f"{path}: empty adjacency file")
    header = tokens[0]
    if header not in (ADJACENCY_HEADER, WEIGHTED_ADJACENCY_HEADER):
        raise ValueError(f"{path}: unrecognised header {header!r}")
    weighted = header == WEIGHTED_ADJACENCY_HEADER
    if len(tokens) < 3:
        raise ValueError(f"{path}: expected n and 2m after the header")
    n, num_arcs = int(tokens[1]), int(tokens[2])
    expected = 2 + n + num_arcs * (2 if weighted else 1)
    if len(tokens) - 1 != expected:
        raise ValueError(
            f"{path}: expected {expected} values after the header, got {len(tokens) - 1}"
        )
    values = tokens[3:]
    indptr = np.append(np.array(values[:n], dtype=np.int64), num_arcs)
    indices = np.array(values[n:n + num_arcs], dtype=np.int64)
    weights = np.array(values[n + num_arcs:], dtype=np.float64) if weighted else None
    return Graph(indptr, indices, weights)
