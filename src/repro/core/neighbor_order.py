"""The neighbor order ``NO``: adjacency lists sorted by non-increasing similarity.

The neighbor order is one half of the GS*-Index structure (Section 3.2).  For
every vertex ``v`` it stores ``v``'s neighbors sorted from most to least
similar, together with the similarity scores.  Because the lists are sorted,
the ε-similar neighbors of ``v`` form a *prefix*, retrievable with a doubling
search in time proportional to its length, and the core threshold of ``v``
for a parameter μ is simply the similarity at position μ-2 of the list (the
paper's 1-indexed ``NO[v][μ]``, whose first entry is ``v`` itself with
similarity 1).

Construction sorts all ``2m`` (vertex, neighbor, similarity) triples with a
single segmented sort, which lets the integer-sort bounds of Section 4.1.2
apply when the similarity scores are quantised rationals.  The sort keys are
exact dense ranks -- sorting by rank is sorting by raw value, since no bucket
merges two distinct floats, yet the key domain is dense enough for the packed
integer sort -- which keeps both stored orders strictly non-increasing in the
raw scores, so every prefix search lands on the same boundary.  The ``m``
edge similarities are ranked once, and every arc inherits its edge's rank.
The same pass yields the index's ε boundary table (the sorted distinct
similarities) and the ranks along ``NO`` that the core order sorts by; the
builder returns both beside the order, so no later stage ranks a similarity
again and neither outlives the build in the order itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import obs
from ..graphs.graph import Graph
from ..parallel.scheduler import Scheduler
from ..parallel.sorting import segmented_sort_by_key
from ..similarity.exact import EdgeSimilarities
from .doubling import prefix_length_at_least


@dataclass
class NeighborOrder:
    """Per-vertex neighbor lists sorted by non-increasing similarity.

    Attributes
    ----------
    indptr:
        CSR offsets (identical to the graph's ``indptr``).
    neighbors:
        Neighbor ids, sorted within each vertex's segment by non-increasing
        similarity (ties broken by ascending neighbor id).
    similarities:
        Similarity scores aligned with ``neighbors``.
    """

    indptr: np.ndarray
    neighbors: np.ndarray
    similarities: np.ndarray

    @property
    def num_vertices(self) -> int:
        """Number of vertices the order covers."""
        return int(self.indptr.shape[0] - 1)

    def degree(self, v: int) -> int:
        """Degree of vertex ``v``."""
        return int(self.indptr[v + 1] - self.indptr[v])

    def neighbors_of(self, v: int) -> np.ndarray:
        """Neighbors of ``v`` from most to least similar."""
        return self.neighbors[self.indptr[v]:self.indptr[v + 1]]

    def similarities_of(self, v: int) -> np.ndarray:
        """Similarity scores aligned with :meth:`neighbors_of`."""
        return self.similarities[self.indptr[v]:self.indptr[v + 1]]

    def epsilon_neighborhood_size(
        self, v: int, epsilon: float, *, scheduler: Scheduler | None = None
    ) -> int:
        """Number of neighbors of ``v`` with similarity at least ``epsilon``.

        Uses doubling search, so the cost is logarithmic in the answer.  The
        vertex itself is *not* counted (add one for the closed ε-neighborhood).
        """
        return prefix_length_at_least(
            self.similarities_of(v), epsilon, scheduler=scheduler
        )

    def epsilon_neighbors(
        self, v: int, epsilon: float, *, scheduler: Scheduler | None = None
    ) -> np.ndarray:
        """Neighbors of ``v`` with similarity at least ``epsilon`` (a prefix of NO[v])."""
        count = self.epsilon_neighborhood_size(v, epsilon, scheduler=scheduler)
        return self.neighbors_of(v)[:count]

    def core_threshold(self, v: int, mu: int) -> float | None:
        """Largest ε for which ``v`` is a core under parameter ``mu``.

        Following the paper's convention, the closed ε-neighborhood of ``v``
        always contains ``v`` itself (similarity 1), so the threshold for
        ``mu`` is the similarity of the ``(mu - 1)``-th most similar neighbor.
        Returns ``None`` when ``v``'s closed neighborhood is smaller than
        ``mu`` (it can never be a core for that ``mu``).
        """
        if mu <= 1:
            return 1.0
        if self.degree(v) < mu - 1:
            return None
        return float(self.similarities_of(v)[mu - 2])


def build_neighbor_order(
    graph: Graph,
    similarities: EdgeSimilarities,
    *,
    scheduler: Scheduler | None = None,
    use_integer_sort: bool = True,
    executor=None,
) -> tuple[NeighborOrder, np.ndarray, np.ndarray | None]:
    """Construct the neighbor order from precomputed edge similarities.

    Returns ``(order, boundaries, ranks)``: the order, the index's ε boundary
    table (the sorted distinct edge similarities) and, for integer-sort
    builds, each order entry's rank in that table (``boundaries[ranks] ==
    order.similarities``, ``int32``; ``None`` otherwise), which
    :func:`~repro.core.core_order.build_core_order` sorts by.

    ``use_integer_sort`` sorts by exact dense ranks of the scores -- the
    modern rendering of Section 4.1.2's rational-to-integer quantisation --
    so the cheaper integer-sort bound is charged; the resulting order is
    identical because ranking is order-preserving.  ``executor`` shards the
    segmented sort across worker processes (see
    :mod:`repro.parallel.execute`); the stored order is bit-identical at any
    worker count.

    The stages run under the spans ``core.neighbor_order.rank`` (per-arc
    scores and keys), ``.pack`` and ``.sort`` (the segmented sort) and
    ``.gather`` (the order's columns and ranks read through the permutation).
    """
    scheduler = scheduler if scheduler is not None else Scheduler()
    with obs.span("core.neighbor_order.rank"):
        arc_similarities = similarities.arc_values()
        if use_integer_sort:
            # One rank pass over the m edge scores; both arcs of an edge share
            # its rank.  Ranks fit 32 bits (there are at most m of them).
            boundaries, edge_ranks = np.unique(similarities.values, return_inverse=True)
            keys = edge_ranks.astype(np.int32)[graph.arc_edge_ids]
        else:
            boundaries = np.unique(similarities.values)
            keys = arc_similarities

    sorted_positions = segmented_sort_by_key(
        scheduler,
        graph.indptr,
        np.arange(graph.num_arcs, dtype=np.int64),
        keys,
        descending=True,
        use_integer_sort=use_integer_sort,
        executor=executor,
        stage="core.neighbor_order",
    )
    with obs.span("core.neighbor_order.gather"):
        order = NeighborOrder(
            indptr=graph.indptr.copy(),
            neighbors=graph.indices[sorted_positions],
            similarities=arc_similarities[sorted_positions],
        )
        ranks = keys[sorted_positions] if use_integer_sort else None
    return order, boundaries, ranks
