"""Tests for index-wide invalidation and sweep cache admission.

Two serving-layer behaviors shipped with the dynamic subsystem:

* the index's mutation epoch is read by every session per request, so
  ``invalidate()`` on any session -- or ``ScanIndex.apply_updates`` --
  makes *all* of them clear their own caches and miss at once;
* ``ClusterSession.query_many`` routes sweep pairs through the result
  cache: hits are materialised from cached payloads, misses run as one
  planned batch and are admitted for later serves.
"""

import numpy as np
import pytest

from repro import ScanIndex
from repro.graphs import planted_partition


@pytest.fixture()
def index():
    graph = planted_partition(3, 20, p_intra=0.5, p_inter=0.04, seed=6)
    return ScanIndex.build(graph)


class TestSharedInvalidation:
    def test_sibling_sessions_miss_after_one_invalidates(self, index):
        first = index.session(cache_size=16)
        second = index.session(cache_size=16)
        first.serve(3, 0.6)
        second.serve(3, 0.6)
        assert second.serve(3, 0.6).from_cache
        first.invalidate()
        refreshed = second.serve(3, 0.6)
        assert not refreshed.from_cache
        assert np.array_equal(
            refreshed.to_clustering().labels, index.query(3, 0.6).labels
        )

    def test_apply_updates_invalidates_every_open_session(self, index):
        sessions = [index.session(cache_size=16) for _ in range(3)]
        for session in sessions:
            session.serve(2, 0.4)
        edge_u, edge_v = index.graph.edge_list()
        index.apply_updates(deletions=[(int(edge_u[0]), int(edge_v[0]))])
        cold = index.query(2, 0.4)
        # Pre-update entries are unreachable everywhere: the first serve on
        # each session misses...
        for session in sessions:
            assert not session.serve(2, 0.4).from_cache
        # ... and the post-update entry each session cached then hits.
        for session in sessions:
            assert session.serve(2, 0.4).from_cache
            assert np.array_equal(
                session.serve(2, 0.4).to_clustering().labels, cold.labels
            )

    def test_manual_invalidate_resyncs_sibling_snappers(self, index):
        """invalidate() after an in-place content swap must not leave a
        sibling session ranking ε against the replaced similarity set."""
        from repro.graphs import planted_partition

        first = index.session(cache_size=16)
        second = index.session(cache_size=16)
        second.serve(2, 0.4)
        replacement = ScanIndex.build(
            planted_partition(3, 20, p_intra=0.4, p_inter=0.08, seed=17)
        )
        index.graph = replacement.graph
        index.similarities = replacement.similarities
        index.neighbor_order = replacement.neighbor_order
        index.core_order = replacement.core_order
        index.epsilon_boundaries = replacement.epsilon_boundaries
        first.invalidate()
        # The sibling resyncs on its next request: fresh snapper, answers
        # matching the new contents for epsilons across the range.
        for epsilon in (0.3, 0.45, 0.6, 0.778, 0.803):
            served = second.serve(2, epsilon)
            assert np.array_equal(
                served.to_clustering().labels, replacement.query(2, epsilon).labels
            ), epsilon
        for session in (first, second):
            assert np.array_equal(
                session.snapper.boundaries, replacement.epsilon_boundaries
            )

    def test_manual_invalidate_rekeys_private_caches_too(self, index):
        """invalidate() bumps the index epoch, so a sibling with its own
        private cache clears it and can never serve pre-swap entries."""
        from repro.graphs import planted_partition

        first = index.session()
        second = index.session()          # separate private cache
        second.serve(2, 0.02)
        replacement = ScanIndex.build(
            planted_partition(2, 10, p_intra=0.6, p_inter=0.1, seed=3)
        )
        index.graph = replacement.graph
        index.similarities = replacement.similarities
        index.neighbor_order = replacement.neighbor_order
        index.core_order = replacement.core_order
        index.epsilon_boundaries = replacement.epsilon_boundaries
        first.invalidate()
        served = second.serve(2, 0.02)    # smaller graph: stale payload would crash
        assert not served.from_cache
        assert np.array_equal(
            served.to_clustering().labels, replacement.query(2, 0.02).labels
        )

    def test_update_refreshes_snapper_boundaries(self, index):
        session = index.session()
        session.serve(2, 0.4)
        before = session.snapper.boundaries
        index.apply_updates(insertions=[(0, 59)])
        session.serve(2, 0.4)
        assert session.snapper.boundaries is not before
        # The refreshed snapper reflects the patched similarity columns.
        assert np.array_equal(
            session.snapper.boundaries,
            np.unique(
                np.concatenate(
                    [
                        np.asarray(index.neighbor_order.similarities),
                        np.asarray(index.core_order.thresholds),
                    ]
                )
            ),
        )


class TestSweepCacheAdmission:
    def test_sweep_results_match_cold_queries(self, index):
        session = index.session()
        pairs = [(2, 0.3), (3, 0.6), (2, 0.3), (5, 0.45), (2, 0.31)]
        for deterministic in (False, True):
            batched = session.query_many(pairs, deterministic_borders=deterministic)
            for (mu, epsilon), clustering in zip(pairs, batched):
                cold = index.query(mu, epsilon, deterministic_borders=deterministic)
                assert np.array_equal(clustering.labels, cold.labels), (mu, epsilon)
                assert np.array_equal(clustering.core_mask, cold.core_mask)

    def test_sweep_admits_entries_serves_hit_afterwards(self, index):
        session = index.session()
        pairs = [(2, 0.3), (3, 0.6), (5, 0.45)]
        session.query_many(pairs, deterministic_borders=True)
        for mu, epsilon in pairs:
            assert session.serve(mu, epsilon, deterministic_borders=True).from_cache

    def test_admitted_payload_is_bit_identical_to_a_cold_serve(self, index):
        warmed = index.session()
        warmed.query_many([(3, 0.6)], deterministic_borders=True)
        from_sweep = warmed.serve(3, 0.6, deterministic_borders=True)
        assert from_sweep.from_cache
        cold = index.session().serve(3, 0.6, deterministic_borders=True)
        assert np.array_equal(from_sweep.vertices, cold.vertices)
        assert np.array_equal(from_sweep.labels, cold.labels)
        assert from_sweep.num_cores == cold.num_cores

    def test_serve_entries_satisfy_later_sweeps(self, index):
        session = index.session()
        session.serve(3, 0.6)
        hits_before = session.cache.stats()["hits"]
        result = session.query_many([(3, 0.6), (3, 0.6)])
        assert session.cache.stats()["hits"] == hits_before + 2
        cold = index.query(3, 0.6)
        for clustering in result:
            assert np.array_equal(clustering.labels, cold.labels)

    def test_epsilons_snapping_together_share_one_planner_slot(self, index):
        session = index.session()
        base = session.serve(3, 0.6)
        nearby = (0.6 + base.snapped_epsilon) / 2.0
        misses_before = session.cache.stats()["misses"]
        batched = session.query_many([(3, 0.6), (3, nearby)])
        # Both pairs hit the entry the serve admitted -- no new misses.
        assert session.cache.stats()["misses"] == misses_before
        assert np.array_equal(batched[0].labels, batched[1].labels)

    def test_validation_errors_still_raise(self, index):
        session = index.session()
        with pytest.raises(ValueError, match="mu"):
            session.query_many([(1, 0.5)])
        with pytest.raises(ValueError, match="epsilon"):
            session.query_many([(2, 1.5)])

    def test_sweep_traffic_counts_in_session_stats(self, index):
        session = index.session()
        session.query_many([(3, 0.6), (2, 0.4), (3, 0.6)])
        stats = session.stats()
        assert stats["served"] == 3
        assert stats["cache_hits"] == 0      # all three missed at lookup time
        session.query_many([(3, 0.6), (2, 0.4)])
        stats = session.stats()
        assert stats["served"] == 5
        assert stats["cache_hits"] == 2
        assert stats["hit_rate"] == pytest.approx(0.4)

    def test_cache_disabled_sweeps_bypass_admission(self, index):
        session = index.session(cache_size=0)
        batched = session.query_many([(2, 0.3), (3, 0.6)])
        assert session.cache is None
        cold = index.query(2, 0.3)
        assert np.array_equal(batched[0].labels, cold.labels)

    def test_empty_sweep(self, index):
        assert index.session().query_many([]) == []
