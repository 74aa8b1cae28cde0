"""Bounded LRU cache for served clustering results.

The serving loop's cache maps ``(μ, ε-rank)`` keys to compact
answers (:class:`repro.core.query.CompactClustering`).  The ε component of
a key is the integer rank produced by :class:`~repro.serve.snapping.
EpsilonSnapper`, not the float the user typed, so every ε inside one
equivalence interval hits the same entry.  Each
:class:`~repro.serve.session.ClusterSession` owns its cache and clears it
when the index it serves is mutated, so keys need no index component.

The cache itself is a plain bounded LRU over an :class:`~collections.
OrderedDict`: hits refresh recency, inserts beyond ``capacity`` evict the
least recently used entry.  It stores whatever payload objects the session
hands it and never copies them; the query planner returns compact answers
with read-only arrays, so a cached entry cannot be mutated by one reader
under another.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Hashable

__all__ = ["ResultCache"]


class ResultCache:
    """A bounded LRU mapping query keys to compact result payloads.

    Parameters
    ----------
    capacity:
        Maximum number of entries kept; inserting beyond it evicts the least
        recently used entry.  Must be at least 1 (a session that wants no
        caching passes ``cache_size=0`` to :class:`~repro.serve.session.
        ClusterSession` instead of constructing a zero-capacity cache).
    """

    def __init__(self, capacity: int = 256) -> None:
        if capacity < 1:
            raise ValueError(f"cache capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self._entries: OrderedDict[Hashable, object] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def get(self, key: Hashable):
        """Payload stored under ``key`` (refreshing recency), else ``None``."""
        payload = self._entries.get(key)
        if payload is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return payload

    def put(self, key: Hashable, payload) -> None:
        """Insert (or refresh) ``key``, evicting the LRU entry when full."""
        entries = self._entries
        if key in entries:
            entries.move_to_end(key)
        entries[key] = payload
        if len(entries) > self.capacity:
            entries.popitem(last=False)
            self.evictions += 1

    def clear(self) -> None:
        """Drop every entry (the hit/miss/eviction counters are kept)."""
        self._entries.clear()

    def stats(self) -> dict:
        """Counters snapshot: size, capacity, hits, misses, evictions."""
        return {
            "size": len(self._entries),
            "capacity": self.capacity,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ResultCache(size={len(self)}/{self.capacity}, "
            f"hits={self.hits}, misses={self.misses})"
        )
