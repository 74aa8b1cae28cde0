"""The query serving loop: :class:`ClusterSession`.

A :class:`~repro.core.index.ScanIndex` answers any ``(μ, ε)`` query cheaply;
a :class:`ClusterSession` is the persistent per-process serving loop over
one, which keeps answers compact and serves repeats without recomputing:

* **Compact answers.**  A miss runs the query tail
  (:func:`~repro.core.query.cluster_compact`) and keeps only the clustered
  vertices and their labels; the dense O(n) clustering is materialised only
  on request.
* **ε-snapping.**  Thresholds are canonicalized by an
  :class:`~repro.serve.snapping.EpsilonSnapper` before cache lookup, so any
  two ε values that select identical similarity prefixes share one cache
  entry.  The snapper wraps the index's stored boundary table, so opening a
  session sorts nothing.
* **Result caching.**  A bounded LRU (:class:`~repro.serve.cache.
  ResultCache`) keyed by ``(generation, μ, ε-rank, border-mode)`` holds
  compact answers; repeats of a hot ``(μ, ε)`` are answered without
  touching the index at all.  Batched sweeps (:meth:`ClusterSession.
  query_many`) route through the same cache: misses run as one planned
  batch whose compact answers are cached as they are.
* **Update safety.**  Generation tokens live in a registry shared by every
  session over one index, read on *every* request -- so an
  :meth:`~repro.core.index.ScanIndex.apply_updates` mutation (or any
  session's :meth:`ClusterSession.invalidate`) makes all of them miss at
  once, and the mutation-epoch check re-wraps the updated boundary table
  automatically.  A served result can never mix pre- and post-update
  state.

Results come back as :class:`ServedResult` -- a *compact* clustering listing
only the clustered vertices and their labels -- and materialise to a dense
:class:`~repro.core.clustering.Clustering` on demand
(:meth:`ServedResult.to_clustering`).  Served answers, cached or not, are
bit-identical to cold :meth:`ScanIndex.query
<repro.core.index.ScanIndex.query>` calls in both border modes; the
property tests in ``tests/serve/`` enforce this over randomized query
streams.  The session is deliberately the narrow seam -- one index, one
cache binding, sequential serves -- that the forked serving workers each
hold one of.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .. import obs
from ..core.clustering import Clustering
from ..core.query import (
    CompactClustering,
    check_setting,
    cluster_compact,
    dense_clustering,
)
from ..core.sweep_query import query_many as _query_many
from ..parallel.scheduler import Scheduler
from .cache import ResultCache
from .snapping import EpsilonSnapper

__all__ = [
    "ClusterSession",
    "ServedResult",
    "invalidate_index_generations",
]


def invalidate_index_generations(index) -> None:
    """Re-key every serving generation bound to ``index`` and bump its epoch.

    The shared staleness epilogue of :meth:`ScanIndex.apply_updates
    <repro.core.index.ScanIndex.apply_updates>` and
    :meth:`ClusterSession.invalidate`: afterwards no session over ``index``
    -- whatever cache it holds -- can serve a pre-mutation entry, and each
    session re-wraps the index's boundary table on its next request.
    """
    index._mutation_epoch = getattr(index, "_mutation_epoch", 0) + 1
    registry = getattr(index, "_serve_generations", None)
    if registry is not None:
        for cache in list(registry):
            registry[cache] = cache.new_generation()


def _bind_generation(index, cache: ResultCache) -> int:
    """Generation token for serving ``index`` through ``cache``.

    Sessions over the *same index object* and the same cache share one
    token -- and therefore share cache entries -- while any other index
    bound to the cache gets a token of its own, so entries can never cross
    indexes.  The registry lives on the index and holds the cache weakly:
    it dies with either side, and because tokens are never reused a
    recycled cache id cannot resurrect an old binding.
    """
    registry = getattr(index, "_serve_generations", None)
    if registry is None:
        registry = weakref.WeakKeyDictionary()
        index._serve_generations = registry
    token = registry.get(cache)
    if token is None:
        token = cache.new_generation()
        registry[cache] = token
    return token


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
    deterministic_borders:
        Border-attachment mode the answer was computed under.
    from_cache:
        Whether this serve was answered from the result cache.
    """

    mu: int
    epsilon: float
    snapped_epsilon: float
    compact: CompactClustering
    num_vertices: int
    deterministic_borders: bool
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
        for the same parameters and border mode.  This is the only O(n) step
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
        disables caching.  Ignored when ``cache`` is given.
    cache:
        An externally owned :class:`~repro.serve.cache.ResultCache` to
        share between sessions.  Sessions over the *same index object*
        share a cache generation -- and therefore each other's entries --
        while sessions over any other index bind a generation of their
        own, so one index's entries can never be served for another (nor
        for this session after :meth:`invalidate`).

    Open one via :meth:`ScanIndex.session()
    <repro.core.index.ScanIndex.session>`::

        index = ScanIndex.load("my.scanidx")
        session = index.session()
        result = session.serve(5, 0.6)          # compact, cached
        clustering = session.query(5, 0.6)      # dense Clustering
    """

    def __init__(
        self,
        index,
        *,
        cache_size: int = 256,
        cache: ResultCache | None = None,
    ) -> None:
        self.index = index
        self.num_vertices = int(index.graph.num_vertices)
        self.snapper = EpsilonSnapper.from_index(index)
        if cache is not None:
            self.cache: ResultCache | None = cache
        elif cache_size > 0:
            self.cache = ResultCache(cache_size)
        else:
            self.cache = None
        # NB: an empty ResultCache is falsy (__len__ == 0) -- test identity.
        if self.cache is not None:
            _bind_generation(index, self.cache)
        # Mutations (ScanIndex.apply_updates) bump the index's epoch; the
        # session compares on every request and self-invalidates, so stale
        # snapper boundaries or cache entries are never consulted.
        self._index_epoch = getattr(index, "_mutation_epoch", 0)
        self.scheduler = Scheduler()
        self.served = 0
        self.cache_hits = 0

    # ------------------------------------------------------------------
    # Staleness guards
    # ------------------------------------------------------------------
    def _generation_token(self) -> int:
        """The *current* generation for this session's cache over this index.

        Read from the index's shared registry on every request rather than
        memoized at construction: any party that bumps the registry --
        :meth:`invalidate` on a sibling session, or the index's own
        ``apply_updates`` -- immediately makes every session bound to that
        (index, cache) pair miss, which is the staleness guarantee.
        """
        token = getattr(self.index, "_serve_generations", {}).get(self.cache)
        if token is None:  # registry dropped (e.g. index swapped) -- rebind
            token = _bind_generation(self.index, self.cache)
        return token

    def _refresh_if_mutated(self) -> None:
        """Resync with the index when it was mutated since the last request.

        ``apply_updates`` already re-keyed the shared generations, so this
        only rebuilds the session-local state (ε-snapper, vertex count, epoch)
        -- bumping the generation *again* here would discard post-update
        entries a sibling session cached moments earlier.
        """
        if getattr(self.index, "_mutation_epoch", 0) != self._index_epoch:
            self._resync_with_index()

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def serve(
        self, mu: int, epsilon: float, *, deterministic_borders: bool = False
    ) -> ServedResult:
        """Answer one ``(μ, ε)`` query from the cache or the query tail.

        The cache key is ``(generation, μ, rank(ε), border-mode)`` with
        ``rank`` the ε-snapping rank, so a hit requires only the O(log m)
        snap and a dict lookup.  On a miss the compact clustering is
        computed (:func:`~repro.core.query.cluster_compact`) and cached.
        Either way the answer is bit-identical to a cold
        :meth:`ScanIndex.query <repro.core.index.ScanIndex.query>`.
        """
        mu = int(mu)
        epsilon = float(epsilon)
        check_setting(mu, epsilon)
        self._refresh_if_mutated()
        rank = self.snapper.rank(epsilon)
        deterministic_borders = bool(deterministic_borders)
        generation = self._generation_token() if self.cache is not None else 0
        key = (generation, mu, rank, deterministic_borders)
        compact = self.cache.get(key) if self.cache is not None else None
        from_cache = compact is not None
        if compact is None:
            # Tracing is gated on obs.on() (not just hidden behind the null
            # tracer) so the disabled serve path is byte-for-byte the
            # pre-instrumentation code: no span object, no attr dict.
            if obs.on():
                with obs.span("serve.session.compute", mu=mu, rank=rank):
                    compact = self._compute(mu, epsilon, deterministic_borders)
            else:
                compact = self._compute(mu, epsilon, deterministic_borders)
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
            deterministic_borders=deterministic_borders,
            from_cache=from_cache,
        )

    def query(
        self, mu: int, epsilon: float, *, deterministic_borders: bool = False
    ) -> Clustering:
        """Serve and materialise a dense clustering (cold-path compatible)."""
        return self.serve(
            mu, epsilon, deterministic_borders=deterministic_borders
        ).to_clustering()

    def query_many(
        self,
        pairs: Iterable[tuple[int, float]],
        *,
        deterministic_borders: bool = False,
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
        """
        pairs = [(int(mu), float(epsilon)) for mu, epsilon in pairs]
        for mu, epsilon in pairs:
            check_setting(mu, epsilon)
        self._refresh_if_mutated()
        deterministic_borders = bool(deterministic_borders)
        generation = self._generation_token() if self.cache is not None else 0
        answers: list[CompactClustering | None] = [None] * len(pairs)
        misses: dict[tuple, list[int]] = {}
        for position, (mu, epsilon) in enumerate(pairs):
            key = (generation, mu, self.snapper.rank(epsilon), deterministic_borders)
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
                deterministic_borders=deterministic_borders,
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
        """Bump the serving generation after the index contents changed.

        Called automatically when :meth:`ScanIndex.apply_updates
        <repro.core.index.ScanIndex.apply_updates>` mutated the index (the
        session detects the epoch bump on its next request); call it
        yourself after replacing the index contents by hand (e.g. the
        artifact was rebuilt on disk and reloaded in place).  The bump
        lands in the index's *shared* generation registry, so every
        session bound to the same (index, cache) pair -- not just this one
        -- misses from now on; old entries never match the new generation
        and the LRU bound reclaims their slots as traffic arrives.  The
        ε-snapper re-wraps the index's (possibly changed) boundary table
        and the vertex count is re-read.
        """
        if self.cache is not None:
            _bind_generation(self.index, self.cache)   # ensure registered
        # Re-key EVERY cache bound to this index, not just this session's,
        # and bump the epoch so siblings resync their snappers: the
        # guarantee is that no session -- whatever cache it holds -- serves
        # pre-invalidation entries.  Same epilogue as apply_updates.
        invalidate_index_generations(self.index)
        self._resync_with_index()

    def _resync_with_index(self) -> None:
        """Rebuild session-local state from the index's current contents."""
        self.snapper = EpsilonSnapper.from_index(self.index)
        self._index_epoch = getattr(self.index, "_mutation_epoch", 0)
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

    def _compute(
        self, mu: int, epsilon: float, deterministic_borders: bool
    ) -> CompactClustering:
        """One cache miss: the query tail's (read-only) compact answer."""
        return cluster_compact(
            self.index.neighbor_order,
            self.index.core_order,
            mu,
            epsilon,
            scheduler=self.scheduler,
            deterministic_borders=deterministic_borders,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        cache = repr(self.cache) if self.cache is not None else "disabled"
        return (
            f"ClusterSession(n={self.num_vertices}, served={self.served}, "
            f"cache={cache})"
        )
