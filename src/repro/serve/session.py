"""The query serving loop: :class:`ClusterSession`.

A :class:`~repro.core.index.ScanIndex` answers any ``(μ, ε)`` query cheaply;
a :class:`ClusterSession` is the persistent per-process serving loop over
one, which keeps answers compact and serves repeats without recomputing:

* **Compact answers.**  A miss runs the query planner's one-pair batch
  (:func:`~repro.core.sweep_query.query_many`) and keeps only the clustered
  vertices and their labels; the dense O(n) clustering is materialised only
  on request.
* **ε-snapping.**  Thresholds are canonicalized by an
  :class:`~repro.serve.snapping.EpsilonSnapper` before cache lookup, so any
  two ε values that select identical similarity prefixes share one cache
  entry.  The snapper wraps the index's stored boundary table, so opening a
  session sorts nothing.
* **Result caching.**  A session-owned bounded LRU (:class:`~repro.serve.
  cache.ResultCache`) keyed by ``(μ, ε-rank)`` holds compact
  answers; repeats of a hot ``(μ, ε)`` are answered without
  touching the index at all.  Batched sweeps (:meth:`ClusterSession.
  query_many`) route through the same cache: misses run as one planned
  batch whose compact answers are cached as they are.
* **Update safety.**  The index keeps one integer mutation epoch, bumped
  by :meth:`~repro.core.index.ScanIndex.apply_updates` and by any
  session's :meth:`ClusterSession.invalidate`.  Every session compares it
  on *every* request; a session that sees a new epoch clears its own
  cache and re-wraps the boundary table, so all sessions over the index
  miss at once.  A served result can never mix pre- and post-update
  state.

Results come back as :class:`ServedResult` -- a *compact* clustering listing
only the clustered vertices and their labels -- and materialise to a dense
:class:`~repro.core.clustering.Clustering` on demand
(:meth:`ServedResult.to_clustering`).  Served answers, cached or not, are
bit-identical to cold :meth:`ScanIndex.query
<repro.core.index.ScanIndex.query>` calls; the
property tests in ``tests/serve/`` enforce this over randomized query
streams.  The session is deliberately the narrow seam -- one index, one
private cache, sequential serves -- that the forked serving workers each
hold one of.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .. import obs
from ..core.clustering import Clustering
from ..core.query import (
    CompactClustering, check_border_rule, check_setting, dense_clustering,
)
from ..core.sweep_query import query_many as _query_many
from ..parallel.scheduler import Scheduler
from .cache import ResultCache
from .snapping import EpsilonSnapper

__all__ = ["ClusterSession", "ServedResult"]


@dataclass(frozen=True)
class ServedResult:
    """One served ``(μ, ε)`` answer: compact labels plus request metadata.

    Attributes
    ----------
    mu, epsilon:
        The parameters as requested (ε *before* snapping, so materialised
        clusterings carry the caller's value).
    snapped_epsilon:
        The boundary ε resolves to (see :class:`~repro.serve.snapping.
        EpsilonSnapper.snap`); ``inf`` when ε exceeds every stored
        similarity.
    compact:
        The shared (possibly cached) :class:`~repro.core.query.
        CompactClustering` answer.
    from_cache:
        Whether this serve was answered from the result cache.
    """

    mu: int
    epsilon: float
    snapped_epsilon: float
    compact: CompactClustering
    num_vertices: int
    from_cache: bool

    @property
    def vertices(self) -> np.ndarray:
        """Clustered vertex ids (cores first, then borders)."""
        return self.compact.vertices

    @property
    def labels(self) -> np.ndarray:
        """Cluster label of each entry of :attr:`vertices`."""
        return self.compact.labels

    @property
    def num_cores(self) -> int:
        """Number of core vertices (the leading entries of :attr:`vertices`)."""
        return self.compact.num_cores

    @property
    def num_clustered_vertices(self) -> int:
        """Number of vertices assigned to some cluster."""
        return int(self.compact.vertices.shape[0])

    @property
    def num_clusters(self) -> int:
        """Number of distinct clusters (precomputed; O(1) on cache hits)."""
        return self.compact.num_clusters

    def to_clustering(self) -> Clustering:
        """Materialise the dense :class:`~repro.core.clustering.Clustering`.

        The dense form is bit-identical to what the cold query path returns
        for the same parameters.  This is the only O(n) step
        of the serving path; callers that only need cluster counts or member
        lists can stay compact.
        """
        return dense_clustering(
            self.compact, self.num_vertices, self.mu, self.epsilon
        )


class ClusterSession:
    """A persistent serving loop over one loaded :class:`ScanIndex`.

    Parameters
    ----------
    index:
        The index to serve; typically a loaded artifact
        (:meth:`ScanIndex.load <repro.core.index.ScanIndex.load>`).
    cache_size:
        Capacity of the session-owned LRU result cache; zero or negative
        disables caching.

    Open one via :meth:`ScanIndex.session()
    <repro.core.index.ScanIndex.session>`::

        index = ScanIndex.load("my.scanidx")
        session = index.session()
        result = session.serve(5, 0.6)          # compact, cached
        clustering = session.query(5, 0.6)      # dense Clustering
    """

    def __init__(self, index, *, cache_size: int = 256) -> None:
        self.index = index
        self.num_vertices = int(index.graph.num_vertices)
        self.snapper = EpsilonSnapper.from_index(index)
        # NB: an empty ResultCache is falsy (__len__ == 0) -- test identity.
        self.cache = ResultCache(cache_size) if cache_size > 0 else None
        # Mutations bump the index's epoch; the session compares on every
        # request and resyncs, so stale snapper boundaries or cache entries
        # are never consulted.
        self._index_epoch = index._mutation_epoch
        self.scheduler = Scheduler()
        self.served = 0
        self.cache_hits = 0

    # ------------------------------------------------------------------
    # Staleness guards
    # ------------------------------------------------------------------
    def _refresh_if_mutated(self) -> None:
        """Resync with the index when it was mutated since the last request."""
        if self.index._mutation_epoch != self._index_epoch:
            self._resync_with_index()

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def serve(
        self, mu: int, epsilon: float, *, deterministic_borders: bool = True
    ) -> ServedResult:
        """Answer one ``(μ, ε)`` query from the cache or the query planner.

        The cache key is ``(μ, rank(ε))`` with ``rank`` the ε-snapping
        rank, so a hit requires only the O(log m) snap and a dict lookup.
        On a miss the compact clustering is computed (the planner's
        one-pair batch) and cached.  Either way the answer is bit-identical
        to a cold :meth:`ScanIndex.query <repro.core.index.ScanIndex.query>`.
        ``deterministic_borders`` accepts only ``True``.
        """
        check_border_rule(deterministic_borders)
        mu = int(mu)
        epsilon = float(epsilon)
        check_setting(mu, epsilon)
        self._refresh_if_mutated()
        rank = self.snapper.rank(epsilon)
        key = (mu, rank)
        compact = self.cache.get(key) if self.cache is not None else None
        from_cache = compact is not None
        if compact is None:
            # Tracing is gated on obs.on() (not just hidden behind the null
            # tracer) so the disabled serve path is byte-for-byte the
            # pre-instrumentation code: no span object, no attr dict.
            if obs.on():
                with obs.span("serve.session.compute", mu=mu, rank=rank):
                    compact = self._compute(mu, epsilon)
            else:
                compact = self._compute(mu, epsilon)
            if self.cache is not None:
                self.cache.put(key, compact)
        elif obs.on():
            obs.event("serve.session.cache_hit", mu=mu, rank=rank)
        self.served += 1
        self.cache_hits += int(from_cache)
        return ServedResult(
            mu=mu,
            epsilon=epsilon,
            snapped_epsilon=self.snapper.snap_at(rank),
            compact=compact,
            num_vertices=self.num_vertices,
            from_cache=from_cache,
        )

    def query(
        self, mu: int, epsilon: float, *, deterministic_borders: bool = True
    ) -> Clustering:
        """Serve and materialise a dense clustering (cold-path compatible)."""
        return self.serve(
            mu, epsilon, deterministic_borders=deterministic_borders
        ).to_clustering()

    def query_many(
        self,
        pairs: Iterable[tuple[int, float]],
        *,
        deterministic_borders: bool = True,
    ) -> list[Clustering]:
        """Batched sweep through the result cache and the planner.

        Every pair is snapped and looked up in the session's result cache
        (when it has one) -- a sweep that repeats earlier traffic, or
        itself, is answered from cached compact answers.  The distinct
        remaining keys run as **one** planned batch through the
        multi-parameter planner (:func:`repro.core.sweep_query.query_many`),
        whose compact answers are cached as they are, so a later
        :meth:`serve` of the same setting hits.  Results are dense
        clusterings in input order, bit-identical to cold calls.
        ``deterministic_borders`` accepts only ``True``.
        """
        check_border_rule(deterministic_borders)
        pairs = [(int(mu), float(epsilon)) for mu, epsilon in pairs]
        for mu, epsilon in pairs:
            check_setting(mu, epsilon)
        self._refresh_if_mutated()
        answers: list[CompactClustering | None] = [None] * len(pairs)
        misses: dict[tuple, list[int]] = {}
        for position, (mu, epsilon) in enumerate(pairs):
            key = (mu, self.snapper.rank(epsilon))
            compact = self.cache.get(key) if self.cache is not None else None
            if compact is not None:
                self.cache_hits += 1
                answers[position] = compact
            else:
                # Distinct snapped keys only: duplicates (and ε values that
                # snap together) ride along with the first occurrence.
                misses.setdefault(key, []).append(position)
        self.served += len(pairs)
        if misses:
            planned = _query_many(
                self.index.neighbor_order,
                self.index.core_order,
                [pairs[positions[0]] for positions in misses.values()],
                scheduler=self.scheduler,
            )
            for (key, positions), compact in zip(misses.items(), planned):
                if self.cache is not None:
                    self.cache.put(key, compact)
                for position in positions:
                    answers[position] = compact
        return [
            dense_clustering(compact, self.num_vertices, mu, epsilon)
            for (mu, epsilon), compact in zip(pairs, answers)
        ]

    # ------------------------------------------------------------------
    # Cache lifecycle
    # ------------------------------------------------------------------
    def invalidate(self) -> None:
        """Bump the index's mutation epoch after its contents changed.

        :meth:`ScanIndex.apply_updates
        <repro.core.index.ScanIndex.apply_updates>` bumps the epoch itself;
        call this after replacing the index contents by hand (e.g. the
        artifact was rebuilt on disk and reloaded in place).  Every session
        over the index -- not just this one -- sees the new epoch on its
        next request, clears its cache and re-wraps the index's (possibly
        changed) boundary table.
        """
        self.index._mutation_epoch += 1
        self._resync_with_index()

    def _resync_with_index(self) -> None:
        """Rebuild session-local state from the index's current contents."""
        if self.cache is not None:
            self.cache.clear()
        self.snapper = EpsilonSnapper.from_index(self.index)
        self._index_epoch = self.index._mutation_epoch
        self.num_vertices = int(self.index.graph.num_vertices)

    def stats(self) -> dict:
        """Serving counters: serves, hits, hit rate, and cache stats."""
        return {
            "served": self.served,
            "cache_hits": self.cache_hits,
            "hit_rate": self.cache_hits / self.served if self.served else 0.0,
            "cache": self.cache.stats() if self.cache is not None else None,
        }

    def sync_metrics(self, registry=None) -> None:
        """Copy this session's counters into a metrics registry.

        The hot serve path keeps its cheap Python attributes (``served``,
        ``cache_hits``, the cache's own counters); this sync happens only
        at snapshot time (``!metrics``, a worker's final trace snapshot),
        so per-request overhead with instrumentation disabled stays zero.
        Counter *values are assigned*, not incremented: syncing twice is
        idempotent.
        """
        registry = registry if registry is not None else obs.metrics()
        registry.counter("serve.session.served_total").value = self.served
        registry.counter("serve.cache.hits_total").value = self.cache_hits
        if self.cache is not None:
            cache_stats = self.cache.stats()
            registry.counter("serve.cache.misses_total").value = cache_stats[
                "misses"
            ]
            registry.counter("serve.cache.evictions_total").value = cache_stats[
                "evictions"
            ]
            registry.gauge("serve.cache.size").set(cache_stats["size"])

    def _compute(self, mu: int, epsilon: float) -> CompactClustering:
        """One cache miss: the planner's one-pair batch (a read-only answer)."""
        return _query_many(
            self.index.neighbor_order,
            self.index.core_order,
            [(mu, epsilon)],
            scheduler=self.scheduler,
        )[0]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        cache = repr(self.cache) if self.cache is not None else "disabled"
        return (
            f"ClusterSession(n={self.num_vertices}, served={self.served}, "
            f"cache={cache})"
        )
