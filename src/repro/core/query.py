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
   the lower vertex id (the deterministic rule of Section 7.3.4).  This tail
   (:func:`compact_answer`) is shared with the sweep planner.

The total work is proportional to the number of ε-similar edges touching the
output clusters, matching Theorem 4.3.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from ..graphs.graph import gather_ids
from ..parallel.metrics import ceil_log2
from ..parallel.primitives import segmented_ranges
from ..parallel.scheduler import Scheduler
from ..parallel.unionfind import UnionFind
from .clustering import UNCLUSTERED, Clustering
from .doubling import prefix_lengths_at_least


def check_setting(mu: int, epsilon: float) -> None:
    """Reject a ``(mu, epsilon)`` setting outside ``mu >= 2``, ``0 <= epsilon <= 1``.

    The one range check of every query entry point (single, sweep, served);
    the comparison is written so that a NaN ε fails it too.
    """
    if mu < 2:
        raise ValueError(f"mu must be at least 2, got {mu}")
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError(f"epsilon must lie in [0, 1], got {epsilon}")


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
    check_setting(mu, epsilon)
    return core_order.cores(mu, epsilon, scheduler=scheduler)


def _epsilon_similar_arcs(
    neighbor_order,
    cores: np.ndarray,
    epsilon: float,
    scheduler: Scheduler,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All arcs (core u, neighbor v, similarity) with similarity >= epsilon.

    Each core's ε-similar neighbors form a prefix of its neighbor-order list.
    All prefixes are located with one batched doubling search over the
    neighbor order's similarity array (Algorithm 5, line 4) and gathered with
    a single segmented expansion -- there is no Python-level loop over cores.
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
    positions = segmented_ranges(starts, counts)
    return (
        np.repeat(cores, counts),
        # Stored ids are int32; the targets index bool and label arrays next,
        # so they are widened to intp once, here.
        gather_ids(neighbor_order.neighbors, positions),
        neighbor_order.similarities[positions],
    )


class CompactClustering(NamedTuple):
    """A clustering that lists only its clustered vertices.

    ``vertices`` holds the cores first, in their ``CO[μ]``-prefix order
    (``vertices[:num_cores]``), then the borders ascending; ``labels`` is the
    cluster id of each, aligned.  ``num_clusters`` counts the cores labelled
    with their own id: union-find representatives are the minimum core id of
    each component, so every cluster has exactly one such core.  Both arrays
    are read-only, so one answer can be shared (the serving cache does).
    """

    vertices: np.ndarray
    labels: np.ndarray
    num_cores: int
    num_clusters: int


def _read_only(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


#: The answer of every setting that selects no cores.
NO_CORES = CompactClustering(
    _read_only(np.zeros(0, dtype=np.int64)), _read_only(np.zeros(0, dtype=np.int64)), 0, 0
)


def compact_answer(
    cores: np.ndarray,
    core_labels: np.ndarray,
    border_sources: np.ndarray,
    border_targets: np.ndarray,
    border_similarities: np.ndarray,
    n: int,
    *,
    scheduler: Scheduler,
    deterministic: bool,
) -> CompactClustering:
    """Attach the borders to the clustered cores and pack the answer (Algorithm 4).

    The query tail shared by :func:`cluster_compact` and the sweep planner.
    ``cores`` are in ``CO[μ]``-prefix order with their union-find labels;
    ``border_*`` list the ε-similar core -> non-core arcs in traversal order
    (cores in that order, neighbor order within a core).  Each border joins
    the cluster of one arc's source: the most similar core with ties to the
    lower core id when ``deterministic``, else the first arc in traversal
    order -- the paper's compare-and-swap keeps the first writer.
    """
    scheduler.charge(
        int(border_targets.size), ceil_log2(max(int(border_targets.size), 1)) + 1.0
    )
    if border_targets.size:
        if deterministic:
            order = np.lexsort((border_sources, -border_similarities))
        else:
            order = np.arange(border_targets.shape[0])
        # First occurrence of every border vertex in priority order, found
        # with one sort-based pass (np.unique returns the first index).
        border_vertices, first = np.unique(border_targets[order], return_index=True)
        # Only core entries are written and then read, so no fill is needed.
        label_of = np.empty(n, dtype=np.int64)
        label_of[cores] = core_labels
        border_labels = label_of[border_sources[order[first]]]
    else:
        border_vertices = border_labels = np.zeros(0, dtype=np.int64)
    return CompactClustering(
        _read_only(np.concatenate([cores, border_vertices])),
        _read_only(np.concatenate([core_labels, border_labels])),
        int(cores.size),
        int(np.count_nonzero(core_labels == cores)),
    )


def cluster_compact(
    neighbor_order,
    core_order,
    mu: int,
    epsilon: float,
    *,
    scheduler: Scheduler,
    deterministic_borders: bool = False,
) -> CompactClustering:
    """SCAN clustering for ``(mu, epsilon)`` in compact form (Algorithm 5).

    The per-pair query behind :func:`cluster` and the serving session's
    cache misses: union-find over the ε-similar core-core arcs, then
    :func:`compact_answer`.  Scratch is allocated per call; the answer
    never aliases it.
    """
    cores = get_cores(core_order, mu, epsilon, scheduler=scheduler)
    if cores.size == 0:
        return NO_CORES
    cores = cores.astype(np.intp)
    arc_sources, arc_targets, arc_similarities = _epsilon_similar_arcs(
        neighbor_order, cores, epsilon, scheduler
    )
    n = neighbor_order.num_vertices
    is_core = np.zeros(n, dtype=bool)
    is_core[cores] = True

    # Connectivity over the ε-similar core-core edges (union-find, Section 6.2).
    core_to_core = is_core[arc_targets]
    core_labels = UnionFind(n).connect(
        scheduler, arc_sources[core_to_core], arc_targets[core_to_core], cores
    )
    border_arcs = ~core_to_core
    return compact_answer(
        cores,
        core_labels,
        arc_sources[border_arcs],
        arc_targets[border_arcs],
        arc_similarities[border_arcs],
        n,
        scheduler=scheduler,
        deterministic=deterministic_borders,
    )


def dense_clustering(compact, num_vertices: int, mu: int, epsilon: float) -> Clustering:
    """Dense :class:`Clustering` from a :class:`CompactClustering` (one O(n) scatter).

    The one place an answer is densified: :func:`cluster`,
    :meth:`ScanIndex.query_many <repro.core.index.ScanIndex.query_many>` and
    the serving session (served results and sweeps) all go through it, so
    the dense and compact forms can never diverge.
    """
    labels = np.full(num_vertices, UNCLUSTERED, dtype=np.int64)
    labels[compact.vertices] = compact.labels
    core_mask = np.zeros(num_vertices, dtype=bool)
    core_mask[compact.vertices[: compact.num_cores]] = True
    return Clustering(labels, core_mask, mu=mu, epsilon=epsilon)


def cluster(
    graph,
    neighbor_order,
    core_order,
    mu: int,
    epsilon: float,
    *,
    scheduler: Scheduler | None = None,
    deterministic_borders: bool = False,
) -> Clustering:
    """SCAN clustering for ``(mu, epsilon)`` from the index (Algorithm 5)."""
    scheduler = scheduler if scheduler is not None else Scheduler()
    compact = cluster_compact(
        neighbor_order,
        core_order,
        mu,
        epsilon,
        scheduler=scheduler,
        deterministic_borders=deterministic_borders,
    )
    return dense_clustering(compact, graph.num_vertices, mu, epsilon)
