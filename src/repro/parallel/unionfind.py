"""Union-find (disjoint set union) in the style of GBBS ConnectIt.

Section 6.2 of the paper replaces the theoretically clean parallel
connectivity algorithm (Gazit) with a concurrent union-find, because
union-find lets the query algorithm avoid materialising the core-core
subgraph: the ε-similar core edges are simply "union"-ed and every core
vertex is then "find"-ed to obtain its cluster id.

This module provides union by rank with path compression, plus the batch
connectivity step :meth:`UnionFind.connect`, which charges the work-span
costs the paper assumes for it: linear work in the number of edges processed
and logarithmic span (unions of independent edges proceed concurrently in the
real implementation; we account for them as a parallel batch).
"""

from __future__ import annotations

import numpy as np

from .metrics import ceil_log2
from .scheduler import Scheduler

#: Arcs per source run unioned before all others in :meth:`UnionFind.connect`
#: (the k of ConnectIt's k-out sampling).  On the query arcs of a
#: 12k-vertex, 464k-edge planted-partition graph (2-vCPU x86 VM), the median
#: call took 25 / 21 / 7.3 / 7.3 / 8.5 / 10 ms for k = 0 / 1 / 2 / 3 / 4 / 8
#: over ~700k arcs, and 11 / 8.9 / 4.6 / 5.0 / 5.2 / 7.7 ms over ~280k.
SAMPLE_ARCS = 2


class UnionFind:
    """Disjoint-set forest over the vertex ids ``0 .. n-1``."""

    def __init__(self, n: int) -> None:
        if n < 0:
            raise ValueError(f"number of elements must be non-negative, got {n}")
        self._parent = np.arange(n, dtype=np.int64)
        self._rank = np.zeros(n, dtype=np.int8)
        # None marks the count stale; it is recomputed on demand.  Batch
        # unions invalidate instead of counting distinct demotions per round
        # (a hashing pass per round that the serving hot path never reads).
        self._num_components: int | None = n

    def __len__(self) -> int:
        return int(self._parent.shape[0])

    @property
    def num_components(self) -> int:
        """Current number of disjoint sets.

        Maintained exactly by the scalar operations; a :meth:`connect`
        marks it stale and the next read recomputes it with one O(n) scan
        (a root is exactly a parent-array fixed point), so the batch query
        hot path never pays per-round component bookkeeping.
        """
        if self._num_components is None:
            n = len(self)
            self._num_components = int(
                np.count_nonzero(self._parent == np.arange(n, dtype=np.int64))
            )
        return self._num_components

    def find(self, x: int) -> int:
        """Representative of the set containing ``x``, with path compression."""
        parent = self._parent
        root = x
        while parent[root] != root:
            root = int(parent[root])
        while parent[x] != root:
            parent[x], x = root, int(parent[x])
        return root

    def union(self, x: int, y: int) -> bool:
        """Merge the sets of ``x`` and ``y``; returns True if they were distinct."""
        root_x = self.find(x)
        root_y = self.find(y)
        if root_x == root_y:
            return False
        rank = self._rank
        if rank[root_x] < rank[root_y]:
            root_x, root_y = root_y, root_x
        self._parent[root_y] = root_x
        if rank[root_x] == rank[root_y]:
            rank[root_x] += 1
        if self._num_components is not None:
            self._num_components -= 1
        return True

    def connected(self, x: int, y: int) -> bool:
        """True when ``x`` and ``y`` are currently in the same set."""
        return self.find(x) == self.find(y)

    def _roots_of(self, vertices: np.ndarray) -> np.ndarray:
        """Roots of ``vertices`` via batched pointer jumping, with compression.

        The loop runs once per level of the deepest queried chain, not once
        per vertex; the queried chains are path-compressed afterwards.  Only
        the queried entries are touched, so the cost is proportional to the
        batch, never to the universe size.
        """
        parent = self._parent
        roots = parent[vertices]
        while True:
            jumped = parent[roots]
            # Direct ufunc comparison: np.array_equal costs several Python
            # dispatch layers per round, measurable on the serving hot path.
            if (jumped == roots).all():
                break
            roots = jumped
        parent[vertices] = roots
        return roots

    def connect(
        self,
        scheduler: Scheduler,
        edges_u: np.ndarray,
        edges_v: np.ndarray,
        vertices: np.ndarray,
    ) -> np.ndarray:
        """Union every pair ``(edges_u[i], edges_v[i])``; return the roots of ``vertices``.

        ``vertices`` must contain every edge endpoint.  ConnectIt-style
        (Dhulipala, Hong and Shun, VLDB 2021) in two steps:

        1. *k-out sample.*  The first :data:`SAMPLE_ARCS` arcs of each run of
           equal ``edges_u`` are unioned first.  On the query path a run is
           one core's ε-similar core arcs in neighbor order, so the sample is
           each core's most similar neighbours, which already joins almost
           every cluster.
        2. *Hook rounds* over every arc (the sampled ones are no longer split
           and drop out in the first round).  Each round pointer-jumps
           ``vertices`` fully once, so an edge's root is a single gather
           ``parent[u]``; it keeps only the edges whose roots are still
           split and hooks the larger root onto the smaller.  Writes always
           point to a strictly smaller id, so no cycle can form, and
           conflicting hooks of one root resolve to the last writer: the
           next round re-examines every still-split edge.

        Representatives are the minimum ids of their components whenever the
        forest was built only by :meth:`connect` calls.  Writes land only at
        ``vertices`` (compression) and at roots of edge endpoints (hooks), so
        the work stays proportional to the batch, never to the universe
        (output-sensitive queries, Theorem 4.3).

        Charged as a concurrent union batch plus a find batch: work linear in
        the number of edges and of vertices, span logarithmic in each.
        """
        edges_u = np.asarray(edges_u, dtype=np.int64)
        edges_v = np.asarray(edges_v, dtype=np.int64)
        vertices = np.asarray(vertices, dtype=np.int64)
        if edges_u.shape != edges_v.shape:
            raise ValueError("edge endpoint arrays must have equal length")
        scheduler.charge(int(edges_u.size), ceil_log2(int(edges_u.size)) + 1.0)
        scheduler.charge(int(vertices.size), ceil_log2(int(vertices.size)) + 1.0)
        if edges_u.size:
            run_ends = np.flatnonzero(edges_u[1:] != edges_u[:-1]) + 1
            run_starts = np.concatenate(([0], run_ends))
            run_ends = np.append(run_ends, edges_u.size)
            sample = run_starts[:, None] + np.arange(SAMPLE_ARCS)
            sample = sample[sample < run_ends[:, None]]
            self._hook_rounds(edges_u[sample], edges_v[sample], vertices)
        return self._hook_rounds(edges_u, edges_v, vertices)

    def _hook_rounds(
        self, edges_u: np.ndarray, edges_v: np.ndarray, vertices: np.ndarray
    ) -> np.ndarray:
        """Min-hook rounds until no edge is split; returns the roots of ``vertices``."""
        parent = self._parent
        while True:
            roots = self._roots_of(vertices)
            root_u = parent[edges_u]
            root_v = parent[edges_v]
            # Indices, not a mask: after the sample almost nothing is split,
            # so four small takes beat four full-length boolean filters.
            split = np.flatnonzero(root_u != root_v)
            if not split.size:
                return roots
            edges_u, edges_v = edges_u[split], edges_v[split]
            root_u, root_v = root_u[split], root_v[split]
            parent[np.maximum(root_u, root_v)] = np.minimum(root_u, root_v)
            # The component count is merely invalidated: counting distinct
            # hooks would cost a hashing pass per round that the serving hot
            # path never reads.
            self._num_components = None

    def find_batch(self, scheduler: Scheduler, vertices: np.ndarray) -> np.ndarray:
        """Representatives of each vertex in ``vertices`` as an array.

        Batched pointer jumping (see :meth:`_roots_of`): the loop runs once
        per level of the deepest queried chain, not once per vertex.
        """
        vertices = np.asarray(vertices, dtype=np.int64)
        scheduler.charge(int(vertices.size), ceil_log2(int(vertices.size)) + 1.0)
        if vertices.size == 0:
            return np.zeros(0, dtype=np.int64)
        return self._roots_of(vertices)
