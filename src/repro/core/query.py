"""Index queries: extracting the SCAN clustering for arbitrary (μ, ε).

This module implements Algorithms 3-5 of the paper.  Given the precomputed
index (neighbor order + core order), a query

1. finds the core vertices as a prefix of ``CO[μ]`` via doubling search
   (:func:`get_cores`, Algorithm 3);
2. gathers all ε-similar edges incident to cores as prefixes of the cores'
   neighbor-order lists (doubling search per core);
3. runs union-find over the ε-similar core-core edges to cluster the cores
   (the connectivity step of Algorithm 5, using the union-find optimisation
   of Section 6.2);
4. attaches border (non-core) vertices to a neighboring core's cluster --
   either to an arbitrary one (the CAS semantics of Algorithm 4) or, for
   reproducible experiments, to the most similar one with ties broken toward
   the lower vertex id (the deterministic rule of Section 7.3.4).

The total work is proportional to the number of ε-similar edges touching the
output clusters, matching Theorem 4.3.
"""

from __future__ import annotations

import numpy as np

from ..parallel.metrics import ceil_log2
from ..parallel.primitives import segmented_ranges
from ..parallel.scheduler import Scheduler
from ..parallel.unionfind import UnionFind
from .clustering import UNCLUSTERED, Clustering
from .doubling import prefix_lengths_at_least


class QueryBuffers:
    """Reusable per-index scratch buffers for repeated queries.

    A cold :func:`cluster` call pays O(n) per query just to allocate scratch:
    a fresh union-find forest (``arange(n)``), the core-membership mask, and
    -- on the sweep path -- the rank/member arrays used to restore traversal
    order.  For interactive serving those allocations dominate small-output
    queries, so :class:`QueryBuffers` allocates them *once* at index size and
    the query paths recycle them, restoring every touched entry before the
    next query (O(result) cleanup, see :meth:`UnionFind.reset_batch
    <repro.parallel.unionfind.UnionFind.reset_batch>`).

    Invariant between queries: ``forest`` is the identity forest, ``labels``
    is all :data:`UNCLUSTERED`, and the ``member`` mask is all False.
    ``rank`` carries no invariant -- its readers only read entries they have
    just written.  Pass an instance to :func:`cluster`,
    :func:`repro.core.sweep_query.query_many`, or hold one inside a
    :class:`repro.serve.ClusterSession`, always against the same index.
    """

    def __init__(self, num_vertices: int) -> None:
        self.num_vertices = int(num_vertices)
        self.forest = UnionFind(self.num_vertices)
        self.labels = np.full(self.num_vertices, UNCLUSTERED, dtype=np.int64)
        self.member = np.zeros(self.num_vertices, dtype=bool)
        self.rank = np.zeros(self.num_vertices, dtype=np.int64)
        # Recycled arc-gather scratch (see ensure_arc_capacity): sized to the
        # largest gather seen so far, grown geometrically, so the steady
        # state of a serving loop allocates nothing for the gather itself.
        self._arc_capacity = 0
        self.arc_positions: np.ndarray | None = None
        self.arc_sources: np.ndarray | None = None
        self.arc_targets: np.ndarray | None = None
        self.arc_similarities: np.ndarray | None = None
        self.arc_flags: np.ndarray | None = None

    def check_size(self, num_vertices: int) -> None:
        """Raise when the buffers were sized for a different graph."""
        if int(num_vertices) != self.num_vertices:
            raise ValueError(
                f"QueryBuffers sized for {self.num_vertices} vertices used "
                f"with a graph of {num_vertices}"
            )

    def ensure_arc_capacity(self, total: int) -> None:
        """Grow the recycled arc-gather buffers to hold ``total`` arcs.

        Growth is geometric (at least doubling), so a serving loop pays the
        allocation a logarithmic number of times and then never again: the
        cold-miss gather of :func:`_epsilon_similar_arcs` writes into these
        buffers instead of allocating O(result) fresh arrays per query.
        ``arc_flags`` rides along for the core-membership gather of the
        compact serving path.  Views into the buffers are only valid until
        the next gather against the same :class:`QueryBuffers`.
        """
        if total <= self._arc_capacity:
            return
        capacity = max(int(total), 2 * self._arc_capacity, 1024)
        self._arc_capacity = capacity
        self.arc_positions = np.zeros(capacity, dtype=np.int64)
        self.arc_sources = np.zeros(capacity, dtype=np.int64)
        self.arc_targets = np.zeros(capacity, dtype=np.int64)
        self.arc_similarities = np.zeros(capacity, dtype=np.float64)
        self.arc_flags = np.zeros(capacity, dtype=bool)


def get_cores(
    core_order,
    mu: int,
    epsilon: float,
    *,
    scheduler: Scheduler | None = None,
) -> np.ndarray:
    """Core vertices under ``(mu, epsilon)`` (Algorithm 3).

    ``mu`` counts the vertex itself (closed ε-neighborhood), following the
    paper; ``mu <= 1`` therefore makes every vertex a core, and values above
    the maximum closed degree yield no cores.
    """
    if mu < 2:
        raise ValueError(f"mu must be at least 2, got {mu}")
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError(f"epsilon must lie in [0, 1], got {epsilon}")
    return core_order.cores(mu, epsilon, scheduler=scheduler)


def _segmented_fill(out: np.ndarray, values: np.ndarray, block_starts: np.ndarray) -> None:
    """Fill ``out`` with ``repeat(values, counts)`` without allocating O(total).

    ``block_starts`` are the (strictly increasing) output offsets of the
    segments, ``block_starts[0] == 0``.  The repeat is delta-encoded -- one
    scatter of the O(segments) first differences followed by an in-place
    cumulative sum -- so the only arrays touched at O(total) size are ``out``
    itself and the cumsum pass over it.
    """
    out[:] = 0
    out[0] = values[0]
    out[block_starts[1:]] = np.diff(values)
    np.cumsum(out, out=out)


def _take_into(source: np.ndarray, positions: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Gather ``source[positions]`` into ``out`` without transient copies.

    ``mode="clip"`` skips the bounds pre-check (the callers' positions are
    in-bounds by construction: CSR prefix offsets) -- with ``mode="raise"``
    numpy routes the gather through an output-sized scratch buffer.  Sources
    that are unaligned (columns mmapped from a pre-alignment artifact) fall
    back to fancy indexing: ``np.take`` with an ``out`` would silently copy
    the *entire* source column per call to realign it.
    """
    if source.dtype == out.dtype and source.flags.aligned:
        np.take(source, positions, out=out, mode="clip")
        return out
    return source[positions]


def _epsilon_similar_arcs(
    neighbor_order,
    cores: np.ndarray,
    epsilon: float,
    scheduler: Scheduler,
    buffers: QueryBuffers | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All arcs (core u, neighbor v, similarity) with similarity >= epsilon.

    Each core's ε-similar neighbors form a prefix of its neighbor-order list.
    All prefixes are located with one batched doubling search over the
    neighbor order's similarity array (Algorithm 5, line 4) and gathered with
    a single segmented expansion -- there is no Python-level loop over cores.

    With ``buffers`` the gather writes into the recycled arc buffers
    (:meth:`QueryBuffers.ensure_arc_capacity`) and returns *views* into them,
    valid until the next gather against the same buffers: the per-request
    allocation of the serving loop's cold-miss path drops from four O(result)
    arrays to the O(cores) search scratch.  The emitted arcs are bit-identical
    either way.
    """
    starts = neighbor_order.indptr[cores]
    lengths = neighbor_order.indptr[cores + 1] - starts
    counts = prefix_lengths_at_least(
        neighbor_order.similarities, epsilon, starts, lengths, scheduler=scheduler
    )
    total = int(counts.sum())
    if total == 0:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty.copy(), np.zeros(0, dtype=np.float64)
    # Gathering the prefixes is one flat parallel copy: work proportional to
    # the number of emitted arcs, span the fork-tree over the non-empty cores.
    num_nonempty = int(np.count_nonzero(counts))
    scheduler.charge(total, ceil_log2(max(num_nonempty, 1)) + 1.0)
    if buffers is None:
        positions = segmented_ranges(starts, counts)
        return (
            np.repeat(cores, counts),
            neighbor_order.neighbors[positions],
            neighbor_order.similarities[positions],
        )

    # Recycled-buffer gather.  Zero-count cores are dropped first so the
    # delta-encoded repeats scatter to strictly increasing offsets.
    buffers.ensure_arc_capacity(total)
    if num_nonempty != counts.shape[0]:
        keep = counts > 0
        cores = cores[keep]
        starts = starts[keep]
        counts = counts[keep]
    block_starts = np.cumsum(counts) - counts
    # Positions are delta-encoded directly: within a segment each position is
    # the previous plus one, and at a segment boundary it jumps from the end
    # of the previous prefix to the next segment's start.  One ones-fill, one
    # O(segments) scatter and one in-place cumsum -- no iota pass.
    positions = buffers.arc_positions[:total]
    positions[:] = 1
    positions[0] = starts[0]
    if counts.shape[0] > 1:
        positions[block_starts[1:]] = starts[1:] - (starts[:-1] + counts[:-1]) + 1
    np.cumsum(positions, out=positions)
    arc_sources = buffers.arc_sources[:total]
    _segmented_fill(arc_sources, cores, block_starts)
    arc_targets = _take_into(
        neighbor_order.neighbors, positions, buffers.arc_targets[:total]
    )
    arc_similarities = _take_into(
        neighbor_order.similarities, positions, buffers.arc_similarities[:total]
    )
    return arc_sources, arc_targets, arc_similarities


def cluster_from_arcs(
    graph,
    cores: np.ndarray,
    arc_sources: np.ndarray,
    arc_targets: np.ndarray,
    arc_similarities: np.ndarray,
    mu: int,
    epsilon: float,
    *,
    scheduler: Scheduler,
    deterministic_borders: bool = False,
    buffers: QueryBuffers | None = None,
) -> Clustering:
    """Clustering from precomputed cores and their ε-similar arcs.

    The tail of Algorithm 5 -- union-find over the core-core arcs followed by
    border attachment -- shared by the single-query path (:func:`cluster`)
    and the batched multi-parameter planner
    (:mod:`repro.core.sweep_query`), which supplies arcs it gathered once for
    a whole ε-group.  Arcs must arrive in the same traversal order the
    single-query path produces (cores in ``CO[μ]``-prefix order, each core's
    arcs in neighbor-order) so that the first-writer border rule matches
    bit for bit.

    When ``buffers`` is given its recycled union-find forest replaces the
    fresh O(n) one; every touched forest entry is restored before returning,
    so repeated calls against the same buffers stay O(result) in scratch
    cost.  The returned :class:`Clustering` always owns freshly allocated
    label/mask arrays -- buffer reuse never aliases results.
    """
    n = graph.num_vertices
    labels = np.full(n, UNCLUSTERED, dtype=np.int64)
    core_mask = np.zeros(n, dtype=bool)
    if cores.size == 0:
        return Clustering(labels, core_mask, mu=mu, epsilon=epsilon)
    core_mask[cores] = True

    # Connectivity over the ε-similar core-core edges (union-find, Section 6.2).
    core_to_core = core_mask[arc_targets]
    cc_sources = arc_sources[core_to_core]
    cc_targets = arc_targets[core_to_core]
    if buffers is not None:
        buffers.check_size(n)
        forest = buffers.forest
        try:
            labels[cores] = forest.connect(scheduler, cc_sources, cc_targets, cores)
        finally:
            # Restore even when the query dies mid-flight: a dirty recycled
            # forest would silently over-merge every later query.
            forest.reset_batch(cc_sources, cc_targets, cores)
    else:
        labels[cores] = UnionFind(n).connect(scheduler, cc_sources, cc_targets, cores)

    # Border vertices: non-core endpoints of ε-similar edges out of cores.
    border_arcs = ~core_to_core
    attach_borders(
        labels,
        arc_sources[border_arcs],
        arc_targets[border_arcs],
        arc_similarities[border_arcs],
        scheduler=scheduler,
        deterministic=deterministic_borders,
    )
    return Clustering(labels, core_mask, mu=mu, epsilon=epsilon)


def resolve_border_assignments(
    border_sources: np.ndarray,
    border_targets: np.ndarray,
    border_similarities: np.ndarray,
    *,
    deterministic: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """Pick the winning core arc for every border vertex (Algorithm 4).

    ``border_*`` list the ε-similar core -> non-core arcs in traversal order.
    Returns ``(border_vertices, winners)`` where ``winners[i]`` indexes the
    arc whose source cluster ``border_vertices[i]`` joins, i.e. the
    assignment is ``labels[border_vertices] = labels[border_sources[winners]]``.
    Shared by :func:`attach_borders` (which applies it to a dense label
    array) and the compact serving path of :mod:`repro.serve.session` (which
    never materialises dense labels).
    """
    if deterministic:
        # Most similar neighboring core wins; ties go to the lower core id.
        order = np.lexsort((border_sources, -border_similarities))
    else:
        # Arbitrary assignment: the paper uses a compare-and-swap, which
        # keeps the first writer; we mirror that by keeping the first arc
        # in traversal order.
        order = np.arange(border_targets.shape[0])
    # First occurrence of every border vertex in priority order, found
    # with one sort-based pass instead of a per-arc Python loop
    # (np.unique returns the index of the first occurrence).
    border_vertices, winner = np.unique(border_targets[order], return_index=True)
    return border_vertices, order[winner]


def attach_borders(
    labels: np.ndarray,
    border_sources: np.ndarray,
    border_targets: np.ndarray,
    border_similarities: np.ndarray,
    *,
    scheduler: Scheduler,
    deterministic: bool = False,
) -> None:
    """Assign border vertices to a neighboring core's cluster (Algorithm 4).

    ``border_*`` list the ε-similar core -> non-core arcs; ``labels`` must
    already hold the core labels and is updated in place.  Shared by the
    single-query tail above and the batched sweep planner.
    """
    scheduler.charge(
        int(border_targets.size), ceil_log2(max(int(border_targets.size), 1)) + 1.0
    )
    if not border_targets.size:
        return
    border_vertices, winners = resolve_border_assignments(
        border_sources,
        border_targets,
        border_similarities,
        deterministic=deterministic,
    )
    labels[border_vertices] = labels[border_sources[winners]]


def cluster(
    graph,
    neighbor_order,
    core_order,
    mu: int,
    epsilon: float,
    *,
    scheduler: Scheduler | None = None,
    deterministic_borders: bool = False,
    buffers: QueryBuffers | None = None,
) -> Clustering:
    """SCAN clustering for ``(mu, epsilon)`` from the index (Algorithm 5).

    ``buffers`` (optional) recycles a :class:`QueryBuffers` union-find forest
    across calls instead of allocating a fresh O(n) forest per query; results
    are bit-identical either way.
    """
    scheduler = scheduler if scheduler is not None else Scheduler()
    cores = get_cores(core_order, mu, epsilon, scheduler=scheduler)
    if cores.size == 0:
        return Clustering(
            np.full(graph.num_vertices, UNCLUSTERED, dtype=np.int64),
            np.zeros(graph.num_vertices, dtype=bool),
            mu=mu,
            epsilon=epsilon,
        )
    arc_sources, arc_targets, arc_similarities = _epsilon_similar_arcs(
        neighbor_order, cores, epsilon, scheduler, buffers=buffers
    )
    return cluster_from_arcs(
        graph,
        cores,
        arc_sources,
        arc_targets,
        arc_similarities,
        mu,
        epsilon,
        scheduler=scheduler,
        deterministic_borders=deterministic_borders,
        buffers=buffers,
    )
