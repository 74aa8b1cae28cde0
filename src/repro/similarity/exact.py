"""Exact all-edge structural similarity computation (Algorithm 1 and Section 6.1).

Four interchangeable backends compute the similarity score of every edge.
The backend matrix -- what each one does, its charged work bound, and when to
pick it:

=========  ==================================================  =======================
backend    strategy                                            when to pick it
=========  ==================================================  =======================
``batch``  the merge strategy executed array-at-once: flat     **default.**  Fastest
           ``(arc, candidate)`` pair expansion in memory-       wall-clock on every
           bounded chunks, one ``np.searchsorted`` over the     graph size; zero
           oriented CSR's composite keys, ``np.bincount``       Python-level per-arc
           scatter-adds.  Charges the same ``O(m^{3/2})``       iteration.
           work / ``O(log n)`` span as ``merge``.
``merge``  the optimisation the paper's implementation uses:    cross-checking
           orient each edge toward its higher-degree            reference for
           endpoint and, per remaining arc, merge the two       ``batch`` (identical
           sorted out-neighbor lists (``np.intersect1d``).      charges, scalar
           Each triangle is found exactly once.  Work           execution); small
           ``O(m^{3/2})``, span ``O(log n)``.                   graphs.
``hash``   the faithful rendering of Algorithm 1: a lazily      reference backend for
           built per-vertex hash table of neighbors, probed     tests; the paper's
           with the lower-degree endpoint's neighbors.          ``O(α m)`` work bound
           Work ``O(Σ min(d_u, d_v)) ⊆ O(α m)``.                analysis.
``matmul`` the numerators of all similarities are the           small *dense* graphs
           entries of ``W²`` where ``W`` is the weight          where ``n²`` memory is
           matrix with unit diagonal (Section 4.1.1);           acceptable and BLAS
           BLAS-backed matrix multiplication, ``O(n^ω)``        wins outright.
           work.
=========  ==================================================  =======================

All backends return an :class:`EdgeSimilarities` holding one score per
canonical edge of the graph and agree to within float summation order
(property tests assert 1e-9 agreement across random graphs and measures).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..graphs.graph import Graph
from ..parallel.metrics import ceil_log2
from ..parallel.scheduler import Scheduler
from .batch import batch_numerators
from .measures import MEASURES

#: Backends accepted by :func:`compute_similarities`.
BACKENDS = ("batch", "merge", "hash", "matmul")


@dataclass
class EdgeSimilarities:
    """Similarity score for every canonical edge of a graph.

    Attributes
    ----------
    graph:
        The graph the scores belong to.
    values:
        Float array of length ``graph.num_edges`` aligned with the canonical
        edge ids.
    measure:
        The similarity measure the scores were computed with (``cosine``,
        ``jaccard``, ``dice``, or their ``approx_``-prefixed variants).
    backend:
        The engine that produced the scores (``batch``, ``merge``, ``hash``,
        ``matmul``, ``lsh``); informational, recorded in saved artifacts.
    numerators:
        Optional closed-neighborhood dot products the scores were finalised
        from (one per edge).  The exact backends attach them; the dynamic
        update subsystem uses them to recompute only the *triangle-affected*
        numerators of a batch and re-finalise everything else from stored
        values (see :mod:`repro.dynamic`).  ``None`` for LSH estimates and
        hand-assembled score arrays, in which case updates fall back to a
        wider recompute.
    """

    graph: Graph
    values: np.ndarray
    measure: str
    backend: str = ""
    numerators: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.shape[0] != self.graph.num_edges:
            raise ValueError(
                f"expected {self.graph.num_edges} similarity values, got {self.values.shape[0]}"
            )
        if self.numerators is not None:
            self.numerators = np.asarray(self.numerators, dtype=np.float64)
            if self.numerators.shape[0] != self.graph.num_edges:
                raise ValueError(
                    f"expected {self.graph.num_edges} numerators, "
                    f"got {self.numerators.shape[0]}"
                )

    def of(self, u: int, v: int) -> float:
        """Similarity of the edge ``{u, v}``."""
        return float(self.values[self.graph.edge_id(u, v)])

    def arc_values(self) -> np.ndarray:
        """Scores replicated per arc, aligned with the graph's CSR ``indices``."""
        return self.values[self.graph.arc_edge_ids.astype(np.intp)]

    def __len__(self) -> int:
        return int(self.values.shape[0])


def _closed_norms(graph: Graph, scheduler: Scheduler) -> np.ndarray:
    """Per-vertex norm ``sqrt(Σ_{x ∈ N̄(v)} w(v,x)²)`` with ``w(v,v) = 1``."""
    n = graph.num_vertices
    if graph.arc_weights is None:
        norms = np.sqrt(graph.degrees.astype(np.float64) + 1.0)
    else:
        squared = np.zeros(n, dtype=np.float64)
        np.add.at(squared, graph.arc_sources(), graph.arc_weights ** 2)
        norms = np.sqrt(squared + 1.0)
    scheduler.charge(graph.num_arcs + n, ceil_log2(max(n, 1)) + 1.0)
    return norms


def _numerators_merge(graph: Graph, scheduler: Scheduler) -> np.ndarray:
    """Closed-neighborhood dot product of every edge via oriented merges."""
    oriented = graph.degree_oriented_csr()
    numerators = np.zeros(graph.num_edges, dtype=np.float64)
    # Base term: x = u and x = v both belong to the closed intersection and
    # contribute w(u,v) * 1 each.
    if graph.edge_weights is None:
        numerators += 2.0
    else:
        numerators += 2.0 * graph.edge_weights

    indptr, indices, edge_ids, weights = oriented
    if weights is None:
        weights = np.ones(indices.shape[0], dtype=np.float64)
    n = graph.num_vertices
    # The per-arc merges run as one flat parallel loop: work adds up across
    # arcs, span is the maximum single merge plus the fork-tree depth.
    total_work = 0.0
    max_span = 0.0
    for u in range(n):
        start_u, end_u = int(indptr[u]), int(indptr[u + 1])
        if start_u == end_u:
            continue
        out_u = indices[start_u:end_u]
        eid_u = edge_ids[start_u:end_u]
        w_u = weights[start_u:end_u]
        for position in range(start_u, end_u):
            v = int(indices[position])
            start_v, end_v = int(indptr[v]), int(indptr[v + 1])
            if start_v == end_v:
                continue
            out_v = indices[start_v:end_v]
            cost = (end_u - start_u) + (end_v - start_v)
            total_work += cost
            max_span = max(max_span, ceil_log2(max(cost, 1)) + 1.0)
            shared, in_u, in_v = np.intersect1d(
                out_u, out_v, assume_unique=True, return_indices=True
            )
            if shared.shape[0] == 0:
                continue
            eid_v = edge_ids[start_v:end_v]
            w_v = weights[start_v:end_v]
            edge_uv = int(edge_ids[position])
            weight_uv = float(weights[position])
            w_ux = w_u[in_u]
            w_vx = w_v[in_v]
            # Triangle {u, v, x}: each edge gains the product of the other two.
            numerators[edge_uv] += float(np.dot(w_ux, w_vx))
            np.add.at(numerators, eid_u[in_u], weight_uv * w_vx)
            np.add.at(numerators, eid_v[in_v], weight_uv * w_ux)
    scheduler.charge(total_work, max_span + ceil_log2(max(graph.num_edges, 1)) + 1.0)
    return numerators


def _numerators_hash(graph: Graph, scheduler: Scheduler) -> np.ndarray:
    """Closed-neighborhood dot products following Algorithm 1 literally."""
    numerators = np.zeros(graph.num_edges, dtype=np.float64)
    edge_u, edge_v = graph.edge_list()
    weighted = graph.arc_weights is not None
    # neighbor_tables[v]: mapping neighbor -> weight, the "hash set" of Alg. 1.
    # Built lazily so only the vertices actually probed (the higher-degree
    # endpoint of some edge) pay for a table; on an edge subset or a skewed
    # graph most vertices never need one.
    neighbor_tables: dict[int, dict[int, float]] = {}
    table_build_work = 0

    def neighbor_table(vertex: int) -> dict[int, float]:
        nonlocal table_build_work
        table = neighbor_tables.get(vertex)
        if table is None:
            table = dict(
                zip(
                    graph.neighbors(vertex).tolist(),
                    graph.neighbor_weights(vertex).tolist(),
                )
            )
            neighbor_tables[vertex] = table
            table_build_work += len(table)
        return table

    total_work = 0.0
    max_span = 0.0
    for edge in range(graph.num_edges):
        u, v = int(edge_u[edge]), int(edge_v[edge])
        if graph.degree(u) > graph.degree(v):
            u, v = v, u
        table_v = neighbor_table(v)
        neighbors_u = graph.neighbors(u)
        weights_u = graph.neighbor_weights(u)
        total_work += neighbors_u.shape[0]
        max_span = max(max_span, ceil_log2(max(neighbors_u.shape[0], 1)) + 1.0)
        total = 0.0
        for x, w_ux in zip(neighbors_u.tolist(), weights_u.tolist()):
            w_vx = table_v.get(x)
            if w_vx is not None:
                total += w_ux * w_vx
        weight_uv = graph.edge_weight(u, v) if weighted else 1.0
        numerators[edge] = total + 2.0 * weight_uv
    # Tables of the probed vertices build as one parallel step...
    scheduler.charge(table_build_work, ceil_log2(max(graph.num_vertices, 1)) + 1.0)
    # ... followed by one parallel loop over the edges (Algorithm 1, line 7).
    scheduler.charge(total_work, max_span + ceil_log2(max(graph.num_edges, 1)) + 1.0)
    return numerators


def _numerators_matmul(graph: Graph, scheduler: Scheduler) -> np.ndarray:
    """Closed-neighborhood dot products via the squared weight matrix."""
    n = graph.num_vertices
    matrix = graph.adjacency_matrix(include_self_loops=True)
    scheduler.charge(float(n) ** 2.373, 2 * ceil_log2(max(n, 1)) + 1.0)
    squared = matrix @ matrix
    edge_u, edge_v = graph.edge_list()
    return squared[edge_u, edge_v]


def _scores(
    measure: str,
    numerators: np.ndarray,
    side_u: np.ndarray,
    side_v: np.ndarray,
) -> np.ndarray:
    """The similarity expressions, elementwise over aligned edge arrays.

    ``side_u``/``side_v`` are the endpoints' closed norms for cosine and
    their closed-neighborhood sizes otherwise.  Both finalise paths call
    this, so a dynamically patched index scores an edge exactly as a
    rebuild does.
    """
    if measure == "cosine":
        return numerators / (side_u * side_v)
    if measure == "jaccard":
        return numerators / (side_u + side_v - numerators)
    # Dice.
    return 2.0 * numerators / (side_u + side_v)


def _finalise(
    graph: Graph,
    numerators: np.ndarray,
    measure: str,
    scheduler: Scheduler,
) -> np.ndarray:
    """Turn closed-intersection numerators into the requested similarity."""
    edge_u, edge_v = graph.edge_list()
    scheduler.charge(graph.num_edges, ceil_log2(max(graph.num_edges, 1)) + 1.0)
    if measure == "cosine":
        norms = _closed_norms(graph, scheduler)
        return _scores(measure, numerators, norms[edge_u], norms[edge_v])
    closed_u = graph.degrees[edge_u].astype(np.float64) + 1.0
    closed_v = graph.degrees[edge_v].astype(np.float64) + 1.0
    return _scores(measure, numerators, closed_u, closed_v)


def finalise_numerators(
    graph: Graph,
    numerators: np.ndarray,
    measure: str,
    *,
    endpoints: tuple[np.ndarray, np.ndarray] | None = None,
    scheduler: Scheduler | None = None,
) -> np.ndarray:
    """Similarity scores from closed-neighborhood dot products.

    With ``endpoints`` -- the ``(u, v)`` arrays of a subset of edges --
    the computation restricts to that subset (``numerators`` then aligns
    with it), applying the same elementwise expressions as the all-edge
    path -- which is what lets the dynamic update subsystem
    (:mod:`repro.dynamic`) re-finalise only the affected edges
    **bit-identically** to a full build, without deriving the graph's
    whole edge list.
    """
    scheduler = scheduler if scheduler is not None else Scheduler()
    if endpoints is None:
        return _finalise(graph, numerators, measure, scheduler)
    edge_u, edge_v = endpoints
    degrees = graph.degrees
    scheduler.charge(edge_u.shape[0], ceil_log2(max(edge_u.shape[0], 1)) + 1.0)
    if measure == "cosine":
        if graph.arc_weights is None:
            norm_u = np.sqrt(degrees[edge_u].astype(np.float64) + 1.0)
            norm_v = np.sqrt(degrees[edge_v].astype(np.float64) + 1.0)
        else:
            # Weighted norms of just the touched endpoints: one bincount
            # over their gathered arcs instead of a whole-graph scatter.
            from ..parallel.primitives import segmented_ranges, sorted_unique

            endpoints = sorted_unique(np.concatenate([edge_u, edge_v]))
            counts = degrees[endpoints]
            positions = segmented_ranges(graph.indptr[endpoints], counts)
            segment = np.repeat(
                np.arange(endpoints.shape[0], dtype=np.int64), counts
            )
            squared = np.bincount(
                segment,
                weights=graph.arc_weights[positions] ** 2,
                minlength=endpoints.shape[0],
            )
            norms = np.sqrt(squared + 1.0)
            norm_u = norms[np.searchsorted(endpoints, edge_u)]
            norm_v = norms[np.searchsorted(endpoints, edge_v)]
        return _scores(measure, numerators, norm_u, norm_v)
    closed_u = degrees[edge_u].astype(np.float64) + 1.0
    closed_v = degrees[edge_v].astype(np.float64) + 1.0
    return _scores(measure, numerators, closed_u, closed_v)


def compute_similarities(
    graph: Graph,
    *,
    measure: str = "cosine",
    backend: str = "batch",
    scheduler: Scheduler | None = None,
    executor=None,
) -> EdgeSimilarities:
    """Similarity score of every edge of ``graph``.

    Parameters
    ----------
    graph:
        Input graph.  Weighted graphs require ``measure="cosine"``.
    measure:
        ``"cosine"``, ``"jaccard"`` or ``"dice"``.
    backend:
        ``"batch"`` (default, the vectorised merge strategy), ``"merge"``
        (Section 6.1), ``"hash"`` (Algorithm 1) or ``"matmul"`` (dense
        graphs, Section 4.1.1).  See the module docstring for the full
        backend matrix.
    scheduler:
        Work-span accounting target; a fresh throw-away scheduler is used
        when omitted.
    executor:
        Optional :class:`~repro.parallel.execute.ParallelExecutor` sharding
        the ``batch`` backend's pass across worker processes (unweighted
        graphs; other backends and weighted graphs run serially and ignore
        it).  The result is bit-identical either way.
    """
    if measure not in MEASURES:
        raise ValueError(f"unknown measure {measure!r}; expected one of {MEASURES}")
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}; expected one of {BACKENDS}")
    if graph.is_weighted and measure != "cosine":
        raise ValueError("weighted graphs only support the (weighted) cosine measure")
    scheduler = scheduler if scheduler is not None else Scheduler()

    if graph.num_edges == 0:
        empty = np.zeros(0, dtype=np.float64)
        return EdgeSimilarities(graph, empty, measure, backend, numerators=empty.copy())

    if backend == "batch":
        numerators = batch_numerators(graph, scheduler, executor=executor)
    elif backend == "merge":
        numerators = _numerators_merge(graph, scheduler)
    elif backend == "hash":
        numerators = _numerators_hash(graph, scheduler)
    else:
        numerators = _numerators_matmul(graph, scheduler)

    values = _finalise(graph, numerators, measure, scheduler)
    return EdgeSimilarities(graph, values, measure, backend, numerators=numerators)
