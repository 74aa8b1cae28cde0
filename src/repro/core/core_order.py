"""The core order ``CO``: per-μ candidate cores sorted by core threshold.

For every value of μ (from 2 up to the largest closed neighborhood size),
``CO[μ]`` lists the vertices whose closed neighborhood has at least μ members
-- the only vertices that can ever be cores for that μ -- sorted by
non-increasing *core threshold*, i.e. the largest ε at which the vertex still
is a core.  At query time the cores for (μ, ε) are a prefix of ``CO[μ]``,
found with a doubling search (Algorithm 3).

The structure stores one entry per (vertex, μ) pair with ``2 <= μ <=
|N̄(v)|``, which is ``Σ_v deg(v) = 2m`` entries in total, matching the O(m)
index-space bound of GS*-Index.  They are the neighbor order's own entries
-- position ``μ - 2`` of ``NO[v]`` is ``v``'s threshold for μ -- so
construction orders all lists with one segmented (integer) sort of those
entries, keyed by the similarity ranks the neighbor order was sorted by.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import obs
from ..graphs.graph import ID_DTYPE, Graph
from ..parallel.metrics import ceil_log2
from ..parallel.primitives import segmented_arange
from ..parallel.scheduler import Scheduler
from ..parallel.sorting import (
    charge_segmented_sort,
    comparison_sort_permutation,
    integer_sort_permutation,
    sort_key_triples,
)
from .doubling import charge_prefix_searches, prefix_length_at_least
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
) -> CoreOrder:
    """Construct the core order from the neighbor order (Algorithm 2).

    The entries of ``CO`` are the entries of ``NO``: position ``μ - 2`` of
    ``NO[v]`` is ``v``'s threshold for μ, so ``v`` belongs to ``CO[μ]`` for
    every ``2 <= μ <= deg(v) + 1``.  Every ``NO`` entry becomes one code
    ``(μ - 2) | (K-1-rank) | v's place in (degree desc, id asc) order`` and
    one sort of the codes is the whole segmented sort (see
    :func:`~repro.parallel.sorting.sort_key_triples`): segments ascend by μ,
    thresholds descend within one, and ties keep the degree order of
    Algorithm 2, line 8.  The segment of μ holds the vertices of degree at
    least ``μ - 1``, so ``indptr`` is a reverse cumulative count of degrees;
    it is charged as the batched doubling search over the degree-sorted
    vertices (Algorithm 2, line 12) that locates the same prefixes.

    ``ranks`` are the neighbor order's similarity ranks, as returned by
    :func:`~repro.core.neighbor_order.build_neighbor_order`: given, both
    sorts are charged as integer sorts; ``None`` (a comparison-sort build)
    charges comparison sorts and ranks the thresholds here.  The order is
    the same either way.

    The stages run under the spans ``core.core_order.rank`` (the degree
    order, the segment offsets and the per-entry keys), ``.pack`` and
    ``.sort`` (the code sort) and ``.gather`` (the order's columns read off
    the sorted keys).
    """
    scheduler = scheduler if scheduler is not None else Scheduler()
    with obs.span("core.core_order.rank"):
        n = graph.num_vertices
        degrees = graph.degrees
        max_degree = graph.max_degree
        max_mu = max_degree + 1
        use_integer_sort = ranks is not None

        # Vertices sorted by non-increasing degree, ties by id (Algorithm 2,
        # line 8); a vertex's place in this order breaks threshold ties.
        if use_integer_sort:
            by_degree = integer_sort_permutation(scheduler, degrees, descending=True)
        else:
            by_degree = comparison_sort_permutation(scheduler, degrees, descending=True)
        place = np.empty(n, dtype=np.int64)
        place[by_degree] = np.arange(n, dtype=np.int64)

        # Members of μ are the vertices of degree >= μ - 1: the segment
        # lengths are the reverse cumulative degree counts.
        at_least = np.cumsum(np.bincount(degrees, minlength=max_mu)[::-1])[::-1]
        segment_lengths = at_least[1:max_mu]
        indptr = np.zeros(max_mu + 2, dtype=np.int64)
        np.cumsum(segment_lengths, out=indptr[3:])
        charge_prefix_searches(scheduler, segment_lengths)
        scheduler.charge(
            int(indptr[-1]), ceil_log2(max(int(segment_lengths.size), 1)) + 1.0
        )

        if ranks is None:
            _, ranks = np.unique(neighbor_order.similarities, return_inverse=True)
        num_ranks = int(ranks.max(initial=-1)) + 1
        keys = (
            segmented_arange(degrees),
            num_ranks - 1 - ranks,
            place[graph.arc_sources()],
        )
    charge_segmented_sort(scheduler, graph.num_arcs, use_integer_sort=use_integer_sort)
    descending, places = sort_key_triples(
        keys, (max_degree, num_ranks, n), stage="core.core_order"
    )
    with obs.span("core.core_order.gather"):
        # Every rank's score, read off NO.
        boundaries = np.empty(num_ranks, dtype=neighbor_order.similarities.dtype)
        boundaries[ranks] = neighbor_order.similarities
        descending -= num_ranks - 1
        np.negative(descending, out=descending)
        return CoreOrder(
            indptr=indptr,
            vertices=by_degree[places].astype(ID_DTYPE),
            thresholds=boundaries[descending],
        )
