"""Tests for the bounded LRU result cache and its per-session lifecycle."""

import numpy as np
import pytest

from repro import ScanIndex
from repro.graphs import paper_example_graph
from repro.serve import ResultCache


class TestLRU:
    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            ResultCache(0)

    def test_get_miss_returns_none(self):
        cache = ResultCache(2)
        assert cache.get("a") is None
        assert cache.misses == 1

    def test_put_get_roundtrip(self):
        cache = ResultCache(2)
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert cache.hits == 1

    def test_eviction_drops_least_recently_used(self):
        cache = ResultCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")            # refresh "a"; "b" is now LRU
        cache.put("c", 3)
        assert "b" not in cache
        assert cache.get("a") == 1 and cache.get("c") == 3
        assert cache.evictions == 1

    def test_refreshing_insert_does_not_evict(self):
        cache = ResultCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)        # refresh, not growth
        assert len(cache) == 2 and cache.evictions == 0
        assert cache.get("a") == 10

    def test_clear(self):
        cache = ResultCache(2)
        cache.put("a", 1)
        cache.clear()
        assert len(cache) == 0 and "a" not in cache

    def test_stats_snapshot(self):
        cache = ResultCache(3)
        cache.put("a", 1)
        cache.get("a")
        cache.get("zzz")
        assert cache.stats() == {
            "size": 1, "capacity": 3, "hits": 1, "misses": 1, "evictions": 0,
        }


class TestGenerations:
    """Each session owns its cache and clears it when the index epoch moves."""

    def test_sibling_sessions_both_miss_after_apply_updates(self):
        index = ScanIndex.build(paper_example_graph())
        first, second = index.session(), index.session()
        for session in (first, second):
            session.serve(3, 0.6)
            assert session.serve(3, 0.6).from_cache
        edge_u, edge_v = index.graph.edge_list()
        index.apply_updates(deletions=[(int(edge_u[0]), int(edge_v[0]))])
        cold = index.query(3, 0.6)
        for session in (first, second):
            served = session.serve(3, 0.6)
            assert not served.from_cache
            assert np.array_equal(served.to_clustering().labels, cold.labels)

    def test_same_index_sessions_keep_private_caches(self):
        """Two sessions over one index never see each other's entries."""
        index = ScanIndex.build(paper_example_graph())
        first, second = index.session(cache_size=8), index.session(cache_size=8)
        assert first.cache is not second.cache
        warmed = first.serve(3, 0.6)
        own = second.serve(3, 0.6)
        assert not own.from_cache
        assert own.compact is not warmed.compact
        assert second.serve(3, 0.6).compact is own.compact

    def test_invalidate_propagates_to_sibling_sessions(self):
        index = ScanIndex.build(paper_example_graph())
        first, second = index.session(), index.session()
        for session in (first, second):
            session.serve(3, 0.6)
        first.invalidate()
        assert len(first.cache) == 0
        cold = index.query(3, 0.6)
        for session in (first, second):
            served = session.serve(3, 0.6)
            assert not served.from_cache
            assert np.array_equal(served.to_clustering().labels, cold.labels)

    def test_sibling_resync_drops_only_stale_entries(self):
        """A sibling clears its cache lazily, on its first request after the
        epoch moved; what it caches afterwards serves hits again."""
        index = ScanIndex.build(paper_example_graph())
        first, second = index.session(), index.session()
        for epsilon in (0.3, 0.6):
            second.serve(3, epsilon)
        first.invalidate()
        assert len(second.cache) == 2          # nothing cleared until it serves
        assert not second.serve(3, 0.6).from_cache
        assert len(second.cache) == 1
        assert second.serve(3, 0.6).from_cache
        assert not second.serve(3, 0.3).from_cache

    def test_invalidate_prevents_stale_hits_and_lru_reclaims(self):
        index = ScanIndex.build(paper_example_graph())
        session = index.session(cache_size=4)
        first = session.serve(3, 0.6)
        assert session.serve(3, 0.6).from_cache
        session.invalidate()
        refreshed = session.serve(3, 0.6)
        assert not refreshed.from_cache           # the cache was cleared
        assert np.array_equal(first.labels, refreshed.labels)
        assert len(session.cache) == 1
        for epsilon in (0.1, 0.2, 0.3, 0.4, 0.5):
            session.serve(2, epsilon)
        assert len(session.cache) <= 4
