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

from .builders import from_edge_list
from .graph import Graph

_COMMENT_PREFIXES = ("#", "%")
ADJACENCY_HEADER = "AdjacencyGraph"
WEIGHTED_ADJACENCY_HEADER = "WeightedAdjacencyGraph"


def read_edge_list(path: str | Path, *, num_vertices: int | None = None) -> Graph:
    """Read an (optionally weighted) edge-list text file into a graph.

    Raises ``ValueError`` naming the file and line for a malformed line or
    a NaN or infinite weight.
    """
    path = Path(path)
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
            if len(parts) >= 3 and not math.isfinite(weight):
                raise ValueError(
                    f"{path}:{line_number}: edge weights must be finite, got {line!r}"
                )
            edges.append((u, v))
            weights.append(weight)
            saw_weight = saw_weight or len(parts) >= 3
    return from_edge_list(
        edges,
        num_vertices=num_vertices,
        weights=weights if saw_weight else None,
    )


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
    cursor = 1
    n = int(tokens[cursor]); cursor += 1
    num_arcs = int(tokens[cursor]); cursor += 1
    offsets = np.array(tokens[cursor:cursor + n], dtype=np.int64); cursor += n
    indices = np.array(tokens[cursor:cursor + num_arcs], dtype=np.int64); cursor += num_arcs
    weights = None
    if weighted:
        weights = np.array(tokens[cursor:cursor + num_arcs], dtype=np.float64); cursor += num_arcs
    indptr = np.empty(n + 1, dtype=np.int64)
    indptr[:-1] = offsets
    indptr[-1] = num_arcs
    return Graph(indptr, indices, weights)
