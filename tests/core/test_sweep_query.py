"""Tests for the batched multi-(mu, epsilon) query planner."""

import numpy as np
import pytest

from repro import ScanIndex
from repro.core.sweep_query import query_many
from repro.graphs import from_edge_list, paper_example_graph, planted_partition
from repro.parallel import Scheduler


@pytest.fixture(scope="module")
def paper_index():
    return ScanIndex.build(paper_example_graph())


@pytest.fixture(scope="module")
def community_index():
    graph = planted_partition(4, 25, p_intra=0.45, p_inter=0.02, seed=11)
    return ScanIndex.build(graph)


def assert_same_answer(planned, single):
    """Two compact answers agree field by field, and both are read-only."""
    assert np.array_equal(planned.vertices, single.vertices)   # order included
    assert np.array_equal(planned.labels, single.labels)
    assert planned.num_cores == single.num_cores
    assert planned.num_clusters == single.num_clusters
    for answer in (planned, single):
        assert not answer.vertices.flags.writeable
        assert not answer.labels.flags.writeable


def random_grid(rng, max_mu, count):
    """Randomized (mu, epsilon) pairs with deliberately repeated epsilons."""
    mus = rng.integers(2, max_mu + 3, size=count)
    epsilons = rng.choice(np.round(np.linspace(0.0, 1.0, 12), 4), size=count)
    return [(int(mu), float(eps)) for mu, eps in zip(mus, epsilons)]


class TestIdentityWithPerPairQueries:
    @pytest.mark.parametrize("deterministic", [False, True])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_per_pair_queries(self, community_index, deterministic, seed):
        rng = np.random.default_rng(seed)
        pairs = random_grid(rng, community_index.graph.max_degree + 1, 30)
        batched = community_index.query_many(
            pairs, deterministic_borders=deterministic
        )
        assert len(batched) == len(pairs)
        for (mu, epsilon), clustering in zip(pairs, batched):
            single = community_index.query(
                mu, epsilon, deterministic_borders=deterministic
            )
            assert np.array_equal(clustering.labels, single.labels), (mu, epsilon)
            assert np.array_equal(clustering.core_mask, single.core_mask)
            assert clustering.mu == mu
            assert clustering.epsilon == epsilon
        planned = query_many(
            community_index.neighbor_order,
            community_index.core_order,
            pairs,
            deterministic_borders=deterministic,
        )
        for pair, answer in zip(pairs, planned):
            (single,) = query_many(
                community_index.neighbor_order,
                community_index.core_order,
                [pair],
                deterministic_borders=deterministic,
            )
            assert_same_answer(answer, single)

    def test_paper_example(self, paper_index):
        pairs = [(3, 0.6), (2, 0.5), (3, 0.6), (64, 0.1), (2, 1.0), (2, 0.0)]
        batched = paper_index.query_many(pairs)
        assert batched[0].num_clusters == 2
        assert batched[2].num_clusters == 2
        assert batched[3].num_clusters == 0       # mu above max closed degree
        assert batched[4].num_clustered_vertices == 0
        assert batched[5].num_clusters == 1

    @pytest.mark.parametrize("deterministic", [False, True])
    def test_mu_beyond_int64_matches_per_pair_queries(self, paper_index, deterministic):
        pairs = [(2**63, 0.3), (3, 0.6), (2**64 + 5, 0.6), (2**63 - 1, 0.0)]
        batched = paper_index.query_many(pairs, deterministic_borders=deterministic)
        session = paper_index.session()
        for (mu, epsilon), clustering in zip(pairs, batched):
            single = paper_index.query(mu, epsilon, deterministic_borders=deterministic)
            served = session.serve(mu, epsilon, deterministic_borders=deterministic)
            for result in (single, served.to_clustering()):
                assert np.array_equal(clustering.labels, result.labels)
                assert np.array_equal(clustering.core_mask, result.core_mask)
            assert clustering.mu == mu
            if mu != 3:
                assert clustering.num_clusters == 0

    def test_duplicate_pairs_share_results(self, paper_index):
        batched = paper_index.query_many([(3, 0.6)] * 4)
        for clustering in batched[1:]:
            assert np.array_equal(batched[0].labels, clustering.labels)

    def test_classify_hubs_and_outliers(self, paper_index):
        [clustering] = paper_index.query_many(
            [(3, 0.6)], classify_hubs_and_outliers=True
        )
        assert clustering.hubs().tolist() == [4]
        assert clustering.outliers().tolist() == [8, 9]


class TestPlannerEfficiency:
    def test_sweep_charges_less_work_than_per_pair_queries(self, community_index):
        epsilons = np.round(np.linspace(0.05, 0.95, 10), 4)
        pairs = [(mu, float(eps)) for mu in (2, 3, 5, 8, 13) for eps in epsilons]
        batch_scheduler = Scheduler()
        community_index.query_many(pairs, scheduler=batch_scheduler)
        single_scheduler = Scheduler()
        for mu, epsilon in pairs:
            community_index.query(mu, epsilon, scheduler=single_scheduler)
        assert batch_scheduler.counter.work < single_scheduler.counter.work

    def test_arcs_gathered_once_per_distinct_epsilon(self, community_index):
        # Ten pairs sharing one epsilon must cost barely more than one pair.
        one = Scheduler()
        community_index.query_many([(2, 0.3)], scheduler=one)
        ten = Scheduler()
        community_index.query_many(
            [(mu, 0.3) for mu in (2, 2, 3, 3, 5, 5, 8, 8, 13, 13)], scheduler=ten
        )
        per_pair = Scheduler()
        for mu in (2, 2, 3, 3, 5, 5, 8, 8, 13, 13):
            community_index.query(mu, 0.3, scheduler=per_pair)
        assert ten.counter.work < per_pair.counter.work

    def test_module_level_entry_point(self, community_index):
        pairs = [(2, 0.4), (3, 0.4)]
        results = query_many(
            community_index.neighbor_order, community_index.core_order, pairs
        )
        for pair, ours in zip(pairs, results):
            (theirs,) = query_many(
                community_index.neighbor_order, community_index.core_order, [pair]
            )
            assert_same_answer(ours, theirs)


class TestEdgeCases:
    def test_empty_batch(self, paper_index):
        assert paper_index.query_many([]) == []

    def test_invalid_mu(self, paper_index):
        with pytest.raises(ValueError):
            paper_index.query_many([(1, 0.5)])

    def test_invalid_epsilon(self, paper_index):
        with pytest.raises(ValueError):
            paper_index.query_many([(2, 1.5)])

    @pytest.mark.parametrize("cache_size", [0, 4])
    def test_nan_epsilon_rejected(self, paper_index, cache_size):
        pairs = [(2, 0.5), (2, float("nan"))]
        with pytest.raises(ValueError, match="epsilon"):
            query_many(paper_index.neighbor_order, paper_index.core_order, pairs)
        with pytest.raises(ValueError, match="epsilon"):
            paper_index.query_many(pairs)
        with pytest.raises(ValueError, match="epsilon"):
            paper_index.session(cache_size=cache_size).query_many(pairs)

    def test_empty_graph(self):
        index = ScanIndex.build(from_edge_list([], num_vertices=3))
        results = index.query_many([(2, 0.5), (4, 0.1)])
        for clustering in results:
            assert clustering.num_clusters == 0

    def test_single_edge(self):
        index = ScanIndex.build(from_edge_list([(0, 1)]))
        [a, b] = index.query_many([(2, 0.5), (2, 1.0)])
        assert a.num_clustered_vertices == 2
        assert np.array_equal(b.labels, index.query(2, 1.0).labels)
