"""Tests for the serving session."""

import tracemalloc

import numpy as np
import pytest

from repro import ScanIndex
from repro.graphs import from_edge_list, paper_example_graph, planted_partition


@pytest.fixture(scope="module")
def index():
    graph = planted_partition(4, 25, p_intra=0.45, p_inter=0.02, seed=11)
    return ScanIndex.build(graph)


@pytest.fixture(scope="module")
def paper_index():
    return ScanIndex.build(paper_example_graph())


class TestServedResult:
    def test_compact_and_dense_agree(self, paper_index):
        session = paper_index.session()
        result = session.serve(3, 0.6)
        dense = result.to_clustering()
        reference = paper_index.query(3, 0.6)
        assert np.array_equal(dense.labels, reference.labels)
        assert np.array_equal(dense.core_mask, reference.core_mask)
        assert result.num_clusters == reference.num_clusters
        assert result.num_clustered_vertices == reference.num_clustered_vertices
        assert dense.mu == 3 and dense.epsilon == 0.6

    def test_compact_lists_cores_first(self, paper_index):
        result = paper_index.session().serve(3, 0.6)
        dense = result.to_clustering()
        cores = result.vertices[: result.num_cores]
        assert np.array_equal(np.sort(cores), dense.core_vertices())
        borders = result.vertices[result.num_cores:]
        assert not np.isin(borders, cores).any()

    def test_empty_result(self, paper_index):
        result = paper_index.session().serve(64, 0.9)
        assert result.num_clusters == 0
        assert result.num_clustered_vertices == 0
        assert result.to_clustering().num_clusters == 0

    def test_cached_payload_is_frozen(self, paper_index):
        result = paper_index.session().serve(3, 0.6)
        with pytest.raises(ValueError):
            result.labels[0] = 99
        with pytest.raises(ValueError):
            result.vertices[0] = 99


class TestCachingBehavior:
    def test_repeat_hits_cache_with_identical_payload(self, index):
        session = index.session()
        first = session.serve(5, 0.6)
        second = session.serve(5, 0.6)
        assert not first.from_cache and second.from_cache
        assert second.compact is first.compact
        assert session.stats()["hit_rate"] == 0.5

    @pytest.mark.parametrize("mu, epsilon", [(2, 0.3), (5, 0.6)])
    def test_cache_hit_allocates_less_than_a_miss_or_a_cold_query(
        self, index, mu, epsilon
    ):
        # A hit hands back the cached compact payload; a miss computes the
        # clustering, and a cold query also builds its O(n) dense arrays.
        def peak_bytes(call):
            tracemalloc.start()
            try:
                call()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        session = index.session()
        session.serve(mu, epsilon)
        hit = peak_bytes(lambda: session.serve(mu, epsilon))
        uncached = index.session(cache_size=0)
        miss = peak_bytes(lambda: uncached.serve(mu, epsilon))
        cold = peak_bytes(lambda: index.query(mu, epsilon))
        assert hit < miss and hit < cold

    def test_snapped_epsilons_share_entries(self, index):
        session = index.session()
        base = session.serve(5, 0.6123)
        snapped = base.snapped_epsilon
        assert snapped != float("inf")
        nearby = (0.6123 + snapped) / 2.0
        repeat = session.serve(5, nearby)
        assert repeat.from_cache
        assert repeat.compact is base.compact
        assert repeat.epsilon == nearby            # metadata keeps the request

    def test_naming_the_border_rule_shares_the_entry(self, index):
        # The key is (μ, rank(ε)) alone: a call that names the one border
        # rule hits the entry a call without the keyword filled.
        session = index.session()
        base = session.serve(5, 0.6)
        named = session.serve(5, 0.6, deterministic_borders=True)
        assert named.from_cache
        assert named.compact is base.compact
        (batched,) = session.query_many([(5, 0.6)], deterministic_borders=True)
        assert session.cache_hits == 2
        assert np.array_equal(batched.labels, base.to_clustering().labels)
        assert len(session.cache) == 1

    @pytest.mark.parametrize("cache_size", [0, -1])
    def test_cache_disabled(self, index, cache_size):
        session = index.session(cache_size=cache_size)
        assert session.cache is None
        session.serve(5, 0.6)
        repeat = session.serve(5, 0.6)
        assert not repeat.from_cache
        assert session.stats()["cache"] is None

    def test_sessions_of_one_index_share_its_boundary_table(self, index):
        first, second = index.session().snapper, index.session().snapper
        assert np.shares_memory(first.boundaries, index.epsilon_boundaries)
        assert np.shares_memory(first.boundaries, second.boundaries)

    def test_validation_happens_before_cache_lookup(self, index):
        session = index.session()
        with pytest.raises(ValueError):
            session.serve(1, 0.5)
        with pytest.raises(ValueError):
            session.serve(2, 1.5)


def _connect_dies_after(calls: int):
    """A ``UnionFind.connect`` that raises after its ``calls``-th non-empty batch.

    The failing call still runs the real union first, so a forest shared
    with later queries would be left dirty.
    """
    from repro.parallel.unionfind import UnionFind

    real_connect = UnionFind.connect
    seen = []

    def connect_then_die(self, scheduler, sources, targets, vertices, **blocks):
        roots = real_connect(self, scheduler, sources, targets, vertices, **blocks)
        if targets.size:
            seen.append(int(np.count_nonzero(self._parent != np.arange(len(self)))))
            if len(seen) == calls:
                raise RuntimeError("injected connect failure")
        return roots

    return connect_then_die, seen


def _assert_matches_cold(index, session, pairs):
    """Both session paths equal cold queries."""
    batched = session.query_many(pairs)
    for (mu, epsilon), clustering in zip(pairs, batched):
        cold = index.query(mu, epsilon)
        served = session.serve(mu, epsilon).to_clustering()
        for result in (clustering, served):
            assert np.array_equal(result.labels, cold.labels)
            assert np.array_equal(result.core_mask, cold.core_mask)


class TestBufferRecycling:
    def test_uncached_serves_match_cold_queries(self, index):
        session = index.session(cache_size=0)
        pairs = [(2, 0.3), (5, 0.6), (3, 0.45), (8, 0.9), (2, 0.3)]
        _assert_matches_cold(index, session, pairs)

    def test_serve_after_connect_dies_mid_serve_matches_cold(
        self, index, monkeypatch
    ):
        """A request that raises mid-serve must not poison later queries."""
        from repro.parallel.unionfind import UnionFind

        session = index.session(cache_size=0)
        session.serve(5, 0.6)                       # warm, known-good
        connect_then_die, seen = _connect_dies_after(1)
        monkeypatch.setattr(UnionFind, "connect", connect_then_die)
        with pytest.raises(RuntimeError):
            session.serve(2, 0.3)                   # dies after the parent writes
        monkeypatch.undo()
        assert seen and seen[0] > 0                 # the forest really was dirty
        _assert_matches_cold(index, session, [(2, 0.3), (5, 0.3), (5, 0.6)])

    def test_query_many_after_connect_dies_mid_group_matches_cold(
        self, index, monkeypatch
    ):
        from repro.parallel.unionfind import UnionFind

        session = index.session()
        # Dies on the group's second pair, after the first pair's unions and
        # this pair's own hooks landed in the group's shared forest.
        connect_then_die, seen = _connect_dies_after(2)
        monkeypatch.setattr(UnionFind, "connect", connect_then_die)
        with pytest.raises(RuntimeError):
            session.query_many([(2, 0.3), (5, 0.3)])
        monkeypatch.undo()
        assert len(seen) == 2 and seen[1] > 0
        _assert_matches_cold(index, session, [(2, 0.3), (5, 0.3), (3, 0.45)])

    def test_invalidate_rebuilds_snapper_for_replaced_index_contents(self):
        """In-place index replacement must refresh the ε-snapping boundaries."""
        graph_a = planted_partition(3, 18, p_intra=0.5, p_inter=0.04, seed=3)
        graph_b = planted_partition(3, 18, p_intra=0.4, p_inter=0.08, seed=4)
        index = ScanIndex.build(graph_a)
        replacement = ScanIndex.build(graph_b)
        session = index.session()
        session.serve(2, 0.45)
        old_boundaries = session.snapper.boundaries

        # The documented rebuild-in-place: same ScanIndex object, new contents.
        index.graph = replacement.graph
        index.similarities = replacement.similarities
        index.neighbor_order = replacement.neighbor_order
        index.core_order = replacement.core_order
        index.epsilon_boundaries = replacement.epsilon_boundaries
        session.invalidate()

        assert session.snapper.boundaries is not old_boundaries
        assert np.array_equal(
            session.snapper.boundaries, replacement.epsilon_boundaries
        )
        for epsilon in (0.3, 0.45, 0.6):
            served = session.serve(2, epsilon)
            cold = replacement.query(2, epsilon)
            assert np.array_equal(served.to_clustering().labels, cold.labels)

    def test_session_query_many_uses_planner_and_matches(self, index):
        session = index.session()
        pairs = [(2, 0.3), (5, 0.6), (5, 0.3), (3, 0.6)]
        batched = session.query_many(pairs)
        for (mu, epsilon), clustering in zip(pairs, batched):
            cold = index.query(mu, epsilon)
            assert np.array_equal(clustering.labels, cold.labels)

    def test_serve_after_query_many_still_identical(self, index):
        """Interleaving the planner and the serve path keeps answers identical."""
        session = index.session()
        session.query_many([(2, 0.3), (5, 0.7)])
        result = session.serve(5, 0.6)
        cold = index.query(5, 0.6)
        assert np.array_equal(result.to_clustering().labels, cold.labels)


class TestEdgeCases:
    def test_single_edge_graph(self):
        index = ScanIndex.build(from_edge_list([(0, 1)]))
        session = index.session()
        for epsilon in (0.0, 0.5, 1.0):
            dense = session.serve(2, epsilon).to_clustering()
            cold = index.query(2, epsilon)
            assert np.array_equal(dense.labels, cold.labels)

    def test_empty_graph(self):
        index = ScanIndex.build(from_edge_list([], num_vertices=4))
        session = index.session()
        assert session.serve(2, 0.5).num_clusters == 0

    def test_loaded_artifact_session(self, index, tmp_path):
        index.save(tmp_path / "served.scanidx")
        loaded = ScanIndex.load(tmp_path / "served.scanidx")
        session = loaded.session()
        result = session.serve(5, 0.6)
        cold = index.query(5, 0.6)
        assert np.array_equal(result.to_clustering().labels, cold.labels)
