"""Compressed-sparse-row representation of simple undirected graphs.

The :class:`Graph` class is the data structure every algorithm in this
library operates on.  It stores an undirected, simple (no self-loops, no
parallel edges) graph in CSR form with neighbor lists sorted by vertex id,
exactly the representation the GBBS framework used by the paper assumes.

Two index spaces are exposed:

* *arcs*: the ``2m`` directed half-edges of the CSR arrays (``indptr``,
  ``indices``, ``arc_weights``);
* *edges*: the ``m`` canonical undirected edges, listed with
  ``edge_u[i] < edge_v[i]``.  ``arc_edge_ids`` maps every arc to the id of
  its canonical edge, which lets per-edge quantities (similarity scores)
  be gathered into per-arc order in one vectorised step.

Vertex and edge ids are stored as 32-bit integers (:data:`ID_DTYPE`), as in
the paper's GBBS code: ``indices`` and ``arc_edge_ids`` are ``int32`` while
the ``indptr`` offsets stay ``int64``.  Every graph of the paper's
evaluation fits (Friendster: 65M vertices, 1.8B edges, both below 2**31).
Arrays derived for use *as indices* -- the canonical edge list and the
degree orientation -- are ``intp``: numpy gathers through an ``int32`` index
run slower than through ``intp`` ones, so ids are widened once where a
column turns into an index, never per use.  Composite keys such as
``u * n + v`` are always formed in ``int64``.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np


#: Stored dtype of vertex and edge ids (``indices``, ``arc_edge_ids``).
ID_DTYPE = np.int32
#: Largest vertex or edge count whose ids fit :data:`ID_DTYPE`.
MAX_IDS = int(np.iinfo(ID_DTYPE).max)


def check_id_capacity(num_vertices: int, num_edges: int = 0) -> None:
    """Reject a graph whose vertex or edge ids would not fit :data:`ID_DTYPE`."""
    for count, what in ((num_vertices, "vertices"), (num_edges, "edges")):
        if count > MAX_IDS:
            raise ValueError(
                f"graph has {count} {what}; ids are stored as 32-bit integers, "
                f"so at most {MAX_IDS} {what} are supported"
            )


def as_ids(values) -> np.ndarray:
    """``values`` as an :data:`ID_DTYPE` array (no copy when already one).

    Wider integer input is range-checked before it is narrowed, so an id
    that does not fit raises instead of wrapping around.
    """
    array = np.asarray(values)
    if array.dtype == ID_DTYPE:
        return array
    if array.size and (array.max() > MAX_IDS or array.min() < -MAX_IDS - 1):
        raise ValueError(f"ids must fit 32-bit integers (at most {MAX_IDS})")
    return array.astype(ID_DTYPE)


#: Entries per block of :func:`gather_ids`.
GATHER_BLOCK = 1 << 16


def gather_ids(ids: np.ndarray, positions: np.ndarray) -> np.ndarray:
    """``ids[positions]`` as ``intp``: where gathered ids become an index.

    Gathered block by block into the one ``intp`` output, so no
    whole-length ``int32`` temporary exists.  On the query path such a
    temporary is ~2 MB, under numpy's 4 MB huge-page threshold, and every
    query faulted it in afresh in 4 KB pages: ~1,800 extra page faults and
    ~20% slower queries on the 464k-edge explore graph (2-vCPU VM).
    """
    out = np.empty(positions.shape[0], dtype=np.intp)
    for start in range(0, positions.shape[0], GATHER_BLOCK):
        block = positions[start:start + GATHER_BLOCK]
        out[start:start + block.shape[0]] = ids[block]
    return out


class DegreeOrientedCsr(NamedTuple):
    """Degree orientation of a graph in CSR form.

    Every undirected edge is kept once, directed toward the endpoint of
    higher degree (ties toward the higher vertex id).  ``edge_ids`` and
    ``weights`` are aligned with ``indices`` and refer back to the canonical
    undirected edges of the originating :class:`Graph`.  ``indices`` and
    ``edge_ids`` are ``intp``: the similarity kernels index with them.
    """

    indptr: np.ndarray
    indices: np.ndarray
    edge_ids: np.ndarray
    weights: np.ndarray


class Graph:
    """Simple undirected graph in CSR form.

    Instances are normally built through :mod:`repro.graphs.builders` or the
    generators rather than by calling this constructor directly.

    Parameters
    ----------
    indptr:
        int64 array of length ``n + 1``; neighbor list of vertex ``v`` is
        ``indices[indptr[v]:indptr[v+1]]``.
    indices:
        Array of length ``2m`` with neighbor ids, sorted within each
        neighbor list; stored as :data:`ID_DTYPE`.
    arc_weights:
        Optional float64 array of length ``2m`` aligned with ``indices``.
        ``None`` means the graph is unweighted (all weights treated as 1).
    """

    def __init__(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        arc_weights: np.ndarray | None = None,
        *,
        validate: bool = True,
        arc_edge_ids: np.ndarray | None = None,
    ) -> None:
        self.indptr = np.asarray(indptr, dtype=np.int64)
        indices = np.asarray(indices)
        check_id_capacity(self.indptr.size - 1, indices.size // 2)
        self.indices = as_ids(indices)
        self.arc_weights = (
            None if arc_weights is None else np.asarray(arc_weights, dtype=np.float64)
        )
        # Memoised derived structures.  The similarity engines, the neighbor
        # order and the finalise step all re-derive the degree orientation
        # (and the LSH split re-reads the degrees), so each is computed once
        # on first use and cached for the lifetime of the graph.  Graphs are
        # immutable after construction, which makes the caching safe.  A
        # graph loaded from an index artifact derives none of them up front
        # and reads no arc column: the offsets check below reads ``indptr``.
        self._degrees: np.ndarray | None = None
        self._arc_sources: np.ndarray | None = None
        self._edge_list: tuple | None = None
        self._degree_oriented_csr: DegreeOrientedCsr | None = None
        self._arc_search_keys: np.ndarray | None = None
        self._oriented_sources: np.ndarray | None = None
        self._oriented_search_keys: np.ndarray | None = None
        if validate:
            self._validate()
        else:
            self._check_offsets()
        if arc_edge_ids is None:
            self.arc_edge_ids = self._number_edges()
        else:
            self.arc_edge_ids = as_ids(arc_edge_ids)
            if self.arc_edge_ids.shape != self.indices.shape:
                raise ValueError("arc_edge_ids must align with indices")

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    def _check_offsets(self) -> None:
        """The O(n) CSR shape checks: offsets and arc-column alignment."""
        if self.indptr.ndim != 1 or self.indptr.size == 0:
            raise ValueError("indptr must be a non-empty 1-D array")
        if self.indptr[0] != 0:
            raise ValueError("indptr must start at 0")
        degrees = np.diff(self.indptr)
        if np.any(degrees < 0):
            raise ValueError("indptr must be non-decreasing")
        if self.indptr[-1] != self.indices.size:
            raise ValueError("indptr[-1] must equal len(indices)")
        if self.arc_weights is not None and self.arc_weights.shape != self.indices.shape:
            raise ValueError("arc_weights must align with indices")
        self._degrees = degrees

    def _validate(self) -> None:
        self._check_offsets()
        n = self.indptr.size - 1
        if self.indices.size and (self.indices.min() < 0 or self.indices.max() >= n):
            raise ValueError("neighbor ids out of range")
        # Segmented checks naming the first bad vertex, a self-loop first.
        sources = self.arc_sources()
        loops = sources[self.indices == sources]
        unordered = sources[1:][(sources[1:] == sources[:-1]) & (np.diff(self.indices) <= 0)]
        if loops.size and (not unordered.size or loops[0] <= unordered[0]):
            raise ValueError(f"self-loop at vertex {loops[0]}")
        if unordered.size:
            raise ValueError(
                f"neighbor list of vertex {unordered[0]} must be strictly increasing "
                "(sorted, no duplicates)"
            )

    def _number_edges(self) -> np.ndarray:
        """Number the canonical edges of a graph given without edge ids.

        Canonical ids number the forward arcs (``u < v``) in CSR order, and a
        stable argsort by target lists the backward arcs ``v -> u`` in that
        same ``(u, v)`` order -- which also proves the neighbor lists
        symmetric, the one check outside input needs beyond :meth:`_validate`.
        Builders and loaded index artifacts hand the ids over instead.
        """
        sources = self.arc_sources()
        targets = self.indices
        forward = sources < targets
        edge_u, edge_v = self.edge_list()
        backward = np.flatnonzero(~forward)
        backward = backward[np.argsort(targets[backward], kind="stable")]
        mirrored = np.stack([targets[backward], sources[backward]])
        if not np.array_equal(mirrored, np.stack([edge_u, edge_v])):
            raise ValueError("neighbor lists must be symmetric")
        edge_ids = np.arange(backward.shape[0], dtype=np.int64)
        arc_edge_ids = np.empty_like(targets)
        arc_edge_ids[forward] = edge_ids
        arc_edge_ids[backward] = edge_ids
        return arc_edge_ids

    @classmethod
    def from_index_columns(
        cls,
        indptr: np.ndarray,
        indices: np.ndarray,
        arc_weights: np.ndarray | None,
        arc_edge_ids: np.ndarray,
    ) -> "Graph":
        """Reconstruct a graph from the columns of a stored index artifact.

        Skips validation (the artifact was written from a validated graph)
        beyond the O(n) offsets check and reuses the stored arc -> edge id
        mapping, so no sorting or searching happens on the load path; the
        canonical edge list and the arc sources are derived on first use.
        """
        return cls(
            indptr, indices, arc_weights, validate=False, arc_edge_ids=arc_edge_ids
        )

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        """Number of vertices ``n``."""
        return int(self.indptr.size - 1)

    @property
    def num_edges(self) -> int:
        """Number of undirected edges ``m``."""
        return int(self.indices.shape[0] // 2)

    @property
    def num_arcs(self) -> int:
        """Number of directed half-edges, ``2m``."""
        return int(self.indices.shape[0])

    @property
    def is_weighted(self) -> bool:
        """True when explicit edge weights are stored."""
        return self.arc_weights is not None

    @property
    def degrees(self) -> np.ndarray:
        """Array of vertex degrees (memoised; do not mutate)."""
        if self._degrees is None:
            self._degrees = np.diff(self.indptr)
        return self._degrees

    def degree(self, v: int) -> int:
        """Degree of vertex ``v``."""
        return int(self.indptr[v + 1] - self.indptr[v])

    @property
    def max_degree(self) -> int:
        """Largest vertex degree (0 for an empty graph)."""
        if self.num_vertices == 0:
            return 0
        return int(self.degrees.max(initial=0))

    def neighbors(self, v: int) -> np.ndarray:
        """Sorted neighbor ids of vertex ``v`` (a view, do not mutate)."""
        return self.indices[self.indptr[v]:self.indptr[v + 1]]

    def neighbor_weights(self, v: int) -> np.ndarray:
        """Weights aligned with :meth:`neighbors`; ones when unweighted."""
        if self.arc_weights is None:
            return np.ones(self.degree(v), dtype=np.float64)
        return self.arc_weights[self.indptr[v]:self.indptr[v + 1]]

    def arc_range(self, v: int) -> tuple[int, int]:
        """Half-open range of arc positions belonging to vertex ``v``."""
        return int(self.indptr[v]), int(self.indptr[v + 1])

    def arc_sources(self) -> np.ndarray:
        """Source vertex of every arc (length ``2m``; memoised)."""
        if self._arc_sources is None:
            self._arc_sources = np.repeat(
                np.arange(self.num_vertices, dtype=np.int64), self.degrees
            )
        return self._arc_sources

    def locate_neighbors(
        self, us: np.ndarray, vs: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Batched adjacency probes: position of ``vs[i]`` in ``us[i]``'s list.

        Returns ``(positions, found)`` where ``positions[i]`` is the absolute
        arc position at which ``vs[i]`` sits (or would be inserted) in the
        neighbor list of ``us[i]``, and ``found[i]`` says whether the edge
        exists.  All probes run as one simultaneous bounded binary search over
        the CSR arrays -- ``O(log max_degree)`` rounds for the whole batch
        instead of one scalar ``np.searchsorted`` call per probe.  Every
        scalar adjacency probe (:meth:`has_edge`, :meth:`edge_id`,
        :meth:`closed_neighborhood`, the reference similarity measures) routes
        through this helper.
        """
        from ..parallel.primitives import segmented_searchsorted

        us = np.asarray(us, dtype=np.int64)
        vs = np.asarray(vs, dtype=np.int64)
        if us.size <= 4:
            # Tiny batches (the scalar accessors): one C-speed bounded
            # search per probe beats the simultaneous-rounds machinery.
            positions = np.empty(us.shape, dtype=np.int64)
            for i, (u, v) in enumerate(zip(us.tolist(), vs.tolist())):
                start, end = int(self.indptr[u]), int(self.indptr[u + 1])
                positions[i] = start + int(
                    np.searchsorted(self.indices[start:end], v)
                )
        else:
            positions = segmented_searchsorted(
                self.indices, vs, self.indptr[us], self.indptr[us + 1]
            )
        in_range = positions < self.indptr[us + 1]
        found = np.zeros(us.shape, dtype=bool)
        if in_range.any():
            hits = np.flatnonzero(in_range)
            found[hits] = self.indices[positions[hits]] == vs[hits]
        return positions, found

    def has_edge(self, u: int, v: int) -> bool:
        """True when ``{u, v}`` is an edge of the graph."""
        if u == v:
            return False
        _, found = self.locate_neighbors(np.array([u]), np.array([v]))
        return bool(found[0])

    def edge_id(self, u: int, v: int) -> int:
        """Canonical edge id of ``{u, v}``; raises ``KeyError`` if absent."""
        if u > v:
            u, v = v, u
        positions, found = self.locate_neighbors(np.array([u]), np.array([v]))
        if not found[0]:
            raise KeyError(f"edge ({u}, {v}) not in graph")
        return int(self.arc_edge_ids[positions[0]])

    def edge_weight(self, u: int, v: int) -> float:
        """Weight of edge ``{u, v}`` (1.0 for unweighted graphs)."""
        edge = self.edge_id(u, v)
        if self.edge_weights is None:
            return 1.0
        return float(self.edge_weights[edge])

    def _canonical_edges(self) -> tuple:
        """``(edge_u, edge_v, edge_weights)`` of the forward arcs (memoised)."""
        if self._edge_list is None:
            sources = self.arc_sources()
            forward = sources < self.indices
            weights = None if self.arc_weights is None else self.arc_weights[forward]
            self._edge_list = (
                sources[forward], self.indices[forward].astype(np.intp), weights
            )
        return self._edge_list

    @property
    def edge_u(self) -> np.ndarray:
        """Smaller endpoint of every canonical edge (memoised; do not mutate)."""
        return self._canonical_edges()[0]

    @property
    def edge_v(self) -> np.ndarray:
        """Larger endpoint of every canonical edge (memoised; do not mutate)."""
        return self._canonical_edges()[1]

    @property
    def edge_weights(self) -> np.ndarray | None:
        """Weight of every canonical edge; ``None`` when unweighted."""
        return self._canonical_edges()[2]

    def edge_list(self) -> tuple[np.ndarray, np.ndarray]:
        """Canonical edge endpoints ``(edge_u, edge_v)`` with ``u < v``.

        Derived once on first use and memoised; callers must not mutate them.
        """
        edge_u, edge_v, _ = self._canonical_edges()
        return edge_u, edge_v

    def edges(self):
        """Iterate canonical edges as ``(u, v)`` Python ints."""
        for u, v in zip(self.edge_u.tolist(), self.edge_v.tolist()):
            yield u, v

    # ------------------------------------------------------------------
    # Derived graphs and matrices
    # ------------------------------------------------------------------
    def closed_neighborhood(self, v: int) -> np.ndarray:
        """Sorted closed neighborhood ``N(v) ∪ {v}`` of vertex ``v``."""
        neighbors = self.neighbors(v)
        positions, _ = self.locate_neighbors(np.array([v]), np.array([v]))
        return np.insert(neighbors, int(positions[0]) - int(self.indptr[v]), v)

    def adjacency_matrix(self, *, include_self_loops: bool = False) -> np.ndarray:
        """Dense adjacency (or weight) matrix as float64.

        ``include_self_loops`` adds a unit diagonal, matching the paper's
        convention ``w(x, x) = 1`` used by the weighted cosine similarity.
        Intended only for small/dense graphs (the matmul backend).
        """
        n = self.num_vertices
        matrix = np.zeros((n, n), dtype=np.float64)
        sources = self.arc_sources()
        if self.arc_weights is None:
            matrix[sources, self.indices] = 1.0
        else:
            matrix[sources, self.indices] = self.arc_weights
        if include_self_loops:
            np.fill_diagonal(matrix, 1.0)
        return matrix

    def degree_oriented_csr(self) -> DegreeOrientedCsr:
        """Degree orientation with per-arc canonical edge ids and weights.

        This is the structure the merge-based similarity engine iterates
        over: each triangle of the graph appears exactly once as an arc
        ``u -> v`` plus a shared out-neighbor ``x`` of ``u`` and ``v``.
        The result is memoised on the graph; callers must not mutate it.
        """
        if self._degree_oriented_csr is not None:
            return self._degree_oriented_csr
        degrees = self.degrees
        n = self.num_vertices
        sources = self.arc_sources()
        targets = self.indices.astype(np.intp)
        rank_source = degrees[sources] * np.int64(n) + sources
        rank_target = degrees[targets] * np.int64(n) + targets
        keep = rank_source < rank_target
        out_sources = sources[keep]
        out_targets = targets[keep]
        out_edge_ids = self.arc_edge_ids[keep].astype(np.intp)
        if self.arc_weights is not None:
            out_weights = self.arc_weights[keep]
        else:
            out_weights = np.ones(out_targets.shape[0], dtype=np.float64)
        out_degrees = np.bincount(out_sources, minlength=n).astype(np.int64)
        out_indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(out_degrees, out=out_indptr[1:])
        self._degree_oriented_csr = DegreeOrientedCsr(
            out_indptr, out_targets, out_edge_ids, out_weights
        )
        self._oriented_sources = out_sources
        return self._degree_oriented_csr

    def oriented_arc_sources(self) -> np.ndarray:
        """Source vertex of every arc of the degree orientation (memoised)."""
        if self._oriented_sources is None:
            self.degree_oriented_csr()
        return self._oriented_sources

    def oriented_search_keys(self) -> np.ndarray:
        """Composite ``source * n + target`` key of every oriented arc.

        Strictly increasing (sources non-decreasing, targets strictly
        increasing per source), with a trailing ``-1`` sentinel so a
        ``searchsorted`` miss past the end compares unequal without bounds
        checks.  Memoised; the batch similarity engine probes this array.
        """
        if self._oriented_search_keys is None:
            oriented = self.degree_oriented_csr()
            keys = self._oriented_sources * np.int64(self.num_vertices) + oriented.indices
            self._oriented_search_keys = np.append(keys, np.int64(-1))
        return self._oriented_search_keys

    def arc_search_keys(self) -> np.ndarray:
        """Composite ``source * n + target`` key of every arc (memoised).

        The CSR arrays list arcs sorted by source and, within a source, by
        target, so the composite keys are strictly increasing: a single
        ``np.searchsorted`` over them answers batched adjacency probes for
        arbitrary ``(vertex, neighbor)`` pairs, which is what the vectorised
        similarity engines build their intersections from.  A trailing ``-1``
        sentinel lets a miss past the end compare unequal without bounds
        checks (search against ``[:num_arcs]``, gather from the full array).
        """
        if self._arc_search_keys is None:
            keys = self.arc_sources() * np.int64(self.num_vertices) + self.indices
            self._arc_search_keys = np.append(keys, np.int64(-1))
        return self._arc_search_keys

    def degree_ordered_arcs(self) -> tuple[np.ndarray, np.ndarray]:
        """Arcs of the degree orientation used by merge-based triangle counting.

        Every undirected edge is directed toward the endpoint of higher degree
        (ties broken toward the higher vertex id), as in Section 6.1.  Returns
        ``(out_indptr, out_indices)`` of the resulting DAG; out-neighbor lists
        are sorted by vertex id.  A view of the memoised
        :meth:`degree_oriented_csr` structure.
        """
        oriented = self.degree_oriented_csr()
        return oriented.indptr, oriented.indices

    def subgraph_edge_mask(self, vertex_mask: np.ndarray) -> np.ndarray:
        """Boolean mask over canonical edges with both endpoints selected."""
        vertex_mask = np.asarray(vertex_mask, dtype=bool)
        if vertex_mask.shape[0] != self.num_vertices:
            raise ValueError("vertex_mask must have one entry per vertex")
        return vertex_mask[self.edge_u] & vertex_mask[self.edge_v]

    # ------------------------------------------------------------------
    # Dunder / misc
    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kind = "weighted" if self.is_weighted else "unweighted"
        return f"Graph(n={self.num_vertices}, m={self.num_edges}, {kind})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        same_structure = (
            np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
        )
        if not same_structure:
            return False
        if (self.arc_weights is None) != (other.arc_weights is None):
            return False
        if self.arc_weights is None:
            return True
        return np.allclose(self.arc_weights, other.arc_weights)

    def __hash__(self) -> int:  # pragma: no cover - Graphs are not dict keys
        return id(self)
