"""The core order ``CO``: per-μ candidate cores sorted by core threshold.

For every value of μ (from 2 up to the largest closed neighborhood size),
``CO[μ]`` lists the vertices whose closed neighborhood has at least μ members
-- the only vertices that can ever be cores for that μ -- sorted by
non-increasing *core threshold*, i.e. the largest ε at which the vertex still
is a core.  At query time the cores for (μ, ε) are a prefix of ``CO[μ]``,
found with a doubling search (Algorithm 3).

The structure stores one entry per (vertex, μ) pair with ``2 <= μ <=
|N̄(v)|``, which is ``Σ_v deg(v) = 2m`` entries in total, matching the O(m)
index-space bound of GS*-Index.  Construction finds the member list of each μ
via doubling search over the degree-sorted vertex array (Algorithm 2, line
12) and orders all lists with one segmented (integer) sort, keyed by the
similarity ranks the neighbor order was sorted by.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..graphs.graph import ID_DTYPE, Graph
from ..parallel.metrics import ceil_log2
from ..parallel.primitives import segmented_arange
from ..parallel.scheduler import Scheduler
from ..parallel.sorting import (
    comparison_sort_permutation,
    integer_sort_permutation,
    segmented_sort_by_key,
)
from .doubling import prefix_length_at_least, prefix_lengths_at_least
from .neighbor_order import NeighborOrder


@dataclass
class CoreOrder:
    """Candidate core vertices for every μ, sorted by non-increasing threshold.

    Attributes
    ----------
    indptr:
        Offsets into ``vertices``/``thresholds`` indexed by μ; entries for
        μ < 2 are empty.  ``indptr`` has length ``max_mu + 2`` so that the
        segment of μ is ``[indptr[μ], indptr[μ+1])``.
    vertices:
        Candidate core vertex ids, segment by segment.
    thresholds:
        Core threshold of each vertex for the segment's μ, aligned with
        ``vertices`` and non-increasing within a segment.
    """

    indptr: np.ndarray
    vertices: np.ndarray
    thresholds: np.ndarray

    @property
    def max_mu(self) -> int:
        """Largest μ for which a candidate list exists."""
        return int(self.indptr.shape[0] - 2)

    def candidates(self, mu: int) -> tuple[np.ndarray, np.ndarray]:
        """Vertices that can be cores for ``mu`` and their thresholds."""
        if mu < 2 or mu > self.max_mu:
            return np.zeros(0, dtype=ID_DTYPE), np.zeros(0, dtype=np.float64)
        start, end = int(self.indptr[mu]), int(self.indptr[mu + 1])
        return self.vertices[start:end], self.thresholds[start:end]

    def cores(
        self, mu: int, epsilon: float, *, scheduler: Scheduler | None = None
    ) -> np.ndarray:
        """Core vertices under parameters ``(mu, epsilon)`` (Algorithm 3).

        The cores are the prefix of ``CO[mu]`` whose thresholds are at least
        ``epsilon``, found by doubling search.
        """
        vertices, thresholds = self.candidates(mu)
        count = prefix_length_at_least(thresholds, epsilon, scheduler=scheduler)
        return vertices[:count]

    def core_threshold(self, v: int, mu: int) -> float | None:
        """Threshold of ``v`` for ``mu`` as recorded in the order (None if absent)."""
        vertices, thresholds = self.candidates(mu)
        matches = np.flatnonzero(vertices == v)
        if matches.size == 0:
            return None
        return float(thresholds[matches[0]])


def build_core_order(
    graph: Graph,
    neighbor_order: NeighborOrder,
    ranks: np.ndarray | None,
    *,
    scheduler: Scheduler | None = None,
    executor=None,
) -> CoreOrder:
    """Construct the core order from the neighbor order (Algorithm 2).

    For μ ranging over ``2 .. max closed degree``, the member list of μ is the
    set of vertices with degree at least ``μ - 1``; it is located by doubling
    search on the degree-sorted vertex array, and every member's threshold is
    read off the neighbor order in O(1).

    ``ranks`` are the neighbor order's similarity ranks, as returned by
    :func:`~repro.core.neighbor_order.build_neighbor_order`: given, both
    sorts are integer sorts and the thresholds are keyed by those ranks;
    ``None`` (a comparison-sort build) keys them by the raw thresholds.  The
    order is the same either way.  ``executor`` shards the global segmented
    sort across worker processes (see :mod:`repro.parallel.execute`); the
    stored order is bit-identical at any worker count.
    """
    scheduler = scheduler if scheduler is not None else Scheduler()
    n = graph.num_vertices
    degrees = graph.degrees
    max_mu = int(degrees.max(initial=0)) + 1 if n else 1
    use_integer_sort = ranks is not None

    # Vertices sorted by non-increasing degree (Algorithm 2, line 8).
    if use_integer_sort:
        order = integer_sort_permutation(scheduler, degrees, descending=True)
    else:
        order = comparison_sort_permutation(scheduler, degrees, descending=True)
    sorted_vertices = np.arange(n, dtype=np.int64)[order]
    sorted_degrees = degrees[order]

    # The per-μ searches run as one parallel batch (Algorithm 2, line 11):
    # members of μ are the vertices with closed degree >= μ, i.e. degree >=
    # μ - 1, a prefix of the degree-sorted array.  All max_mu - 1 prefixes
    # are located with one batched doubling search against the shared array
    # and expanded with one segmented gather -- no Python loop over μ.
    mu_values = np.arange(2, max_mu + 1, dtype=np.int64)
    segment_lengths = np.zeros(max_mu + 1, dtype=np.int64)
    if mu_values.size:
        segment_lengths[2:] = prefix_lengths_at_least(
            sorted_degrees,
            mu_values - 1,
            np.zeros(mu_values.size, dtype=np.int64),
            np.full(mu_values.size, n, dtype=np.int64),
            scheduler=scheduler,
        )

    indptr = np.zeros(max_mu + 2, dtype=np.int64)
    np.cumsum(segment_lengths, out=indptr[1:])
    total_entries = int(indptr[-1])
    # Rank of every entry within its μ-segment, and the μ it belongs to.
    counts = segment_lengths[2:]
    slots = segmented_arange(counts)
    entry_mu = np.repeat(mu_values, counts)
    all_vertices = sorted_vertices[slots]
    # Threshold of v for μ: similarity of its (μ - 1)-th most similar
    # neighbor, i.e. position μ - 2 of NO[v].
    offsets = neighbor_order.indptr[all_vertices] + (entry_mu - 2)
    all_thresholds = neighbor_order.similarities[offsets]
    nonzero_segments = int(np.count_nonzero(counts))
    scheduler.charge(
        total_entries, ceil_log2(max(nonzero_segments, 1)) + 1.0
    )

    # One global segmented sort orders every CO[mu] by non-increasing
    # threshold (ties by vertex id, inherited from the stable sort).  The
    # integer keys are the neighbor order's similarity ranks read at the
    # same offsets -- no second ranking pass.
    keys = ranks[offsets] if use_integer_sort else all_thresholds
    positions = np.arange(all_vertices.shape[0], dtype=np.int64)
    sorted_positions = segmented_sort_by_key(
        scheduler,
        indptr,
        positions,
        keys,
        descending=True,
        use_integer_sort=use_integer_sort,
        executor=executor,
    )
    return CoreOrder(
        indptr=indptr,
        vertices=all_vertices[sorted_positions].astype(ID_DTYPE),
        thresholds=all_thresholds[sorted_positions],
    )
