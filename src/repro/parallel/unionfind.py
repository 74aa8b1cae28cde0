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
real implementation; we account for them as a parallel batch).  ``connect``
takes its arcs as source blocks under a keep mask, so the query unions the
ε-similar core arcs where its gather left them instead of compressing them
into an edge list first.
"""

from __future__ import annotations

import numpy as np

from .metrics import ceil_log2
from .primitives import segmented_ranges
from .scheduler import Scheduler

#: Arcs per source block unioned before all others in :meth:`UnionFind.connect`
#: (the k of ConnectIt's k-out sampling).  On the one-pair query arcs of the
#: 12k-vertex, 464k-edge planted-partition explore graph (45-setting grid,
#: 2-vCPU x86 VM), the median call took 57 / 43 / 6.0 / 7.8 / 6.8 / 8.9 ms for
#: k = 0 / 1 / 2 / 3 / 4 / 8 over ~715k arcs, and 18 / 18 / 3.3 / 4.0 / 4.7 /
#: 5.5 ms over ~255k.  On a sweep's chain steps an old core's block is an ε
#: band, not its most similar neighbours; the 45 steps of that grid's sweep
#: (median 41k kept arcs a step) took 97 / 81 / 89 / 96 ms in all for
#: k = 1 / 2 / 3 / 4, so k = 2 stays.
SAMPLE_ARCS = 2


class UnionFind:
    """Disjoint-set forest over the vertex ids ``0 .. n-1``."""

    def __init__(self, n: int) -> None:
        if n < 0:
            raise ValueError(f"number of elements must be non-negative, got {n}")
        self._parent = np.arange(n, dtype=np.int64)
        self._rank = np.zeros(n, dtype=np.int8)

    def __len__(self) -> int:
        return int(self._parent.shape[0])

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
        sources: np.ndarray,
        targets: np.ndarray,
        vertices: np.ndarray,
        *,
        counts: np.ndarray | None = None,
        keep: np.ndarray | None = None,
    ) -> np.ndarray:
        """Union arcs given as source blocks; return the roots of ``vertices``.

        The arcs come in blocks: block ``i`` holds the ``counts[i]`` arcs from
        ``sources[i]`` to the next ``counts[i]`` entries of ``targets``, and
        ``keep`` (one flag per target) selects the arcs to union; by default
        every block is one arc and every arc is kept, so ``(sources,
        targets)`` is a plain edge list.  On the query path a block is the
        slice of one core's ε-similar neighbor prefix that a chain step
        gathered, unioned in place under a core mask.  ``vertices`` must contain every endpoint of a
        kept arc.  ConnectIt-style (Dhulipala, Hong and Shun, VLDB 2021) in
        two steps:

        1. *k-out sample.*  The kept arcs among the first :data:`SAMPLE_ARCS`
           of each block, read off the block starts, are unioned first.  On
           a one-pair query those are a core's most similar neighbours, which
           already joins almost every cluster; on a later step of a sweep's
           chain they open the core's new ε band.  (A plain edge list is all
           sample.)
        2. *Finish.*  One pass over every kept arc compares the compressed
           roots of its endpoints, ``parent[source]`` against
           ``parent[target]``; hook rounds then run over only the arcs still
           split.

        Each hook round pointer-jumps ``vertices`` fully once, so an edge's
        root is a single gather ``parent[u]``; it keeps only the edges whose
        roots are still split and hooks the larger root onto the smaller.
        Writes always point to a strictly smaller id, so no cycle can form,
        and conflicting hooks of one root resolve to the last writer: the
        next round re-examines every still-split edge.

        Representatives are the minimum ids of their components whenever the
        forest was built only by :meth:`connect` calls, whatever the order or
        sample of the unions.  Writes land only at ``vertices`` (compression)
        and at roots of edge endpoints (hooks), so the work stays
        proportional to the batch, never to the universe (output-sensitive
        queries, Theorem 4.3).

        Charged as a concurrent union batch over the kept arcs plus a find
        batch: work linear in the number of arcs and of vertices, span
        logarithmic in each.
        """
        sources = np.asarray(sources, dtype=np.int64)
        targets = np.asarray(targets, dtype=np.int64)
        vertices = np.asarray(vertices, dtype=np.int64)
        if counts is None:
            if sources.shape != targets.shape:
                raise ValueError("edge endpoint arrays must have equal length")
            counts = np.ones(sources.shape[0], dtype=np.int64)
        elif counts.shape != sources.shape or int(counts.sum()) != targets.size:
            raise ValueError("block counts must match the sources and sum to the targets")
        if keep is not None and keep.shape != targets.shape:
            raise ValueError("keep must flag every target")
        num_arcs = int(targets.size if keep is None else np.count_nonzero(keep))
        scheduler.charge(num_arcs, ceil_log2(num_arcs) + 1.0)
        scheduler.charge(int(vertices.size), ceil_log2(int(vertices.size)) + 1.0)
        if not num_arcs:
            return self._roots_of(vertices)

        ends = np.cumsum(counts)
        width = np.minimum(counts, SAMPLE_ARCS)
        sample = segmented_ranges(ends - counts, width)
        sample_sources = np.repeat(sources, width)
        if keep is not None:
            kept = keep[sample]
            sample, sample_sources = sample[kept], sample_sources[kept]
        self._hook_rounds(sample_sources, targets[sample], vertices)

        # The sample's last round compressed every vertex, so parent[] is
        # the root of each kept arc's endpoints.
        parent = self._parent
        split = parent[targets] != np.repeat(parent[sources], counts)
        if keep is not None:
            split &= keep
        split = np.flatnonzero(split)
        blocks = np.searchsorted(ends, split, side="right")
        return self._hook_rounds(sources[blocks], targets[split], vertices)

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
