"""Constructors that turn edge lists and adjacency maps into :class:`Graph`.

All builders normalise the input into a simple undirected graph: duplicate
edges are collapsed (keeping the last weight seen), self-loops are dropped,
and neighbor lists end up sorted by vertex id, as the rest of the library
assumes.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

import numpy as np

from .graph import Graph


def from_edge_list(
    edges: Iterable[tuple[int, int]] | np.ndarray,
    *,
    num_vertices: int | None = None,
    weights: Sequence[float] | np.ndarray | None = None,
) -> Graph:
    """Build a graph from an iterable of ``(u, v)`` pairs.

    Parameters
    ----------
    edges:
        Pairs of vertex ids.  Orientation and duplicates are ignored; self
        loops are dropped.
    num_vertices:
        Total vertex count.  Defaults to ``max id + 1`` (isolated trailing
        vertices must be declared explicitly).
    weights:
        Optional per-edge weights aligned with ``edges``.  When a duplicate
        edge appears, the last weight wins.

    Raises ``ValueError`` for malformed edges, negative ids and NaN or
    infinite weights.
    """
    edge_array = np.asarray(list(edges) if not isinstance(edges, np.ndarray) else edges)
    if edge_array.size == 0:
        edge_array = edge_array.reshape(0, 2)
    if edge_array.ndim != 2 or edge_array.shape[1] != 2:
        raise ValueError("edges must be an iterable of (u, v) pairs")
    edge_array = edge_array.astype(np.int64)
    if edge_array.size and edge_array.min() < 0:
        raise ValueError("vertex ids must be non-negative")

    weight_array: np.ndarray | None = None
    if weights is not None:
        weight_array = np.asarray(weights, dtype=np.float64)
        if weight_array.shape[0] != edge_array.shape[0]:
            raise ValueError("weights must align with edges")
        _require_finite_weights(weight_array)

    inferred = int(edge_array.max()) + 1 if edge_array.size else 0
    n = inferred if num_vertices is None else int(num_vertices)
    if n < inferred:
        raise ValueError(
            f"num_vertices={n} is smaller than the largest referenced vertex id {inferred - 1}"
        )

    # Canonicalise: drop self loops, order endpoints, deduplicate.
    u = np.minimum(edge_array[:, 0], edge_array[:, 1])
    v = np.maximum(edge_array[:, 0], edge_array[:, 1])
    not_loop = u != v
    u, v = u[not_loop], v[not_loop]
    if weight_array is not None:
        weight_array = weight_array[not_loop]

    if u.size:
        keys = u * np.int64(max(n, 1)) + v
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        u, v = u[order], v[order]
        if weight_array is not None:
            weight_array = weight_array[order]
        # Keep the *last* occurrence of each duplicate so later weights win.
        is_last = np.ones(keys.shape[0], dtype=bool)
        is_last[:-1] = keys[1:] != keys[:-1]
        u, v = u[is_last], v[is_last]
        if weight_array is not None:
            weight_array = weight_array[is_last]

    return _from_canonical_edges(n, u, v, weight_array)


def _require_finite_weights(weights: np.ndarray) -> None:
    """Reject NaN and infinite weights: scores derived from them are NaN."""
    bad = ~np.isfinite(weights)
    if bad.any():
        first = int(np.flatnonzero(bad)[0])
        raise ValueError(
            f"edge weights must be finite; weight {first} is {weights[first]!r}"
        )


def _from_canonical_edges(
    n: int,
    edge_u: np.ndarray,
    edge_v: np.ndarray,
    edge_weights: np.ndarray | None,
) -> Graph:
    """Assemble CSR arrays from deduplicated edges with ``u < v``, in ``(u, v)`` order.

    One argsort of the arcs' unique ``source * n + target`` keys orders the
    CSR and hands :class:`Graph` each arc's edge id.
    """
    sources = np.concatenate([edge_u, edge_v])
    targets = np.concatenate([edge_v, edge_u])
    order = np.argsort(sources * np.int64(max(n, 1)) + targets)
    edge_ids = np.arange(edge_u.shape[0], dtype=np.int64)
    arc_edge_ids = np.concatenate([edge_ids, edge_ids])[order]
    arc_weights = None
    if edge_weights is not None:
        arc_weights = np.concatenate([edge_weights, edge_weights])[order]

    counts = np.bincount(sources, minlength=n).astype(np.int64)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return Graph(indptr, targets[order], arc_weights, arc_edge_ids=arc_edge_ids)


def from_adjacency(
    adjacency: Mapping[int, Iterable[int]],
    *,
    num_vertices: int | None = None,
) -> Graph:
    """Build an unweighted graph from a vertex -> neighbors mapping.

    The mapping does not need to be symmetric; an edge is added whenever it
    appears in either direction.
    """
    pairs = [(int(u), int(v)) for u, neighbors in adjacency.items() for v in neighbors]
    if num_vertices is None and adjacency:
        num_vertices = max(
            max(adjacency.keys(), default=-1),
            max((v for _, v in pairs), default=-1),
        ) + 1
    return from_edge_list(pairs, num_vertices=num_vertices)


def from_weighted_edge_list(
    weighted_edges: Iterable[tuple[int, int, float]],
    *,
    num_vertices: int | None = None,
) -> Graph:
    """Build a weighted graph from ``(u, v, weight)`` triples."""
    triples = list(weighted_edges)
    edges = [(u, v) for u, v, _ in triples]
    weights = [w for _, _, w in triples]
    return from_edge_list(edges, num_vertices=num_vertices, weights=weights)


def empty_graph(num_vertices: int) -> Graph:
    """Graph with ``num_vertices`` vertices and no edges."""
    return from_edge_list(np.zeros((0, 2), dtype=np.int64), num_vertices=num_vertices)


def complete_graph(num_vertices: int, *, weight: float | None = None) -> Graph:
    """Complete graph on ``num_vertices`` vertices (optionally uniform-weighted)."""
    pairs = [(u, v) for u in range(num_vertices) for v in range(u + 1, num_vertices)]
    weights = None if weight is None else [weight] * len(pairs)
    return from_edge_list(pairs, num_vertices=num_vertices, weights=weights)


def relabel_to_contiguous(graph: Graph, *, drop_isolated: bool = True) -> tuple[Graph, np.ndarray]:
    """Compact vertex ids so they are contiguous, optionally dropping isolated vertices.

    Mirrors the preprocessing the paper applies to the brain / Friendster /
    HumanBase graphs.  Returns the new graph and an array mapping new ids to
    the original ids.
    """
    degrees = graph.degrees
    if drop_isolated:
        keep = np.flatnonzero(degrees > 0)
    else:
        keep = np.arange(graph.num_vertices, dtype=np.int64)
    new_id = -np.ones(graph.num_vertices, dtype=np.int64)
    new_id[keep] = np.arange(keep.shape[0], dtype=np.int64)
    edge_u, edge_v = graph.edge_list()
    weights = graph.edge_weights
    remapped = from_edge_list(
        np.column_stack([new_id[edge_u], new_id[edge_v]]),
        num_vertices=int(keep.shape[0]),
        weights=weights,
    )
    return remapped, keep
