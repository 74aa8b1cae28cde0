"""Tests for ScanIndex construction, queries, and hub/outlier classification."""

import numpy as np
import pytest

from repro import ApproximationConfig, ScanIndex
from repro.baselines import scan_clustering
from repro.core import UNCLUSTERED, classify_unclustered, get_cores
from repro.graphs import empty_graph, from_edge_list, planted_partition
from repro.parallel import Scheduler
from repro.similarity import compute_similarities


@pytest.fixture(scope="module")
def paper_index():
    from repro.graphs import paper_example_graph

    return ScanIndex.build(paper_example_graph())


@pytest.fixture(scope="module")
def community_index():
    graph = planted_partition(4, 30, p_intra=0.4, p_inter=0.01, seed=7)
    return ScanIndex.build(graph)


class TestConstruction:
    def test_reports_costs(self, paper_index):
        report = paper_index.construction_report
        assert report.work > 0
        assert report.span > 0
        assert report.wall_seconds >= 0.0

    def test_measure_recorded(self, paper_index):
        assert paper_index.measure == "cosine"

    def test_index_size_linear_in_edges(self, paper_index):
        # NO stores 2m entries and CO stores Σ deg(v) = 2m entries.
        assert paper_index.index_size_entries() == 4 * paper_index.graph.num_edges

    def test_build_from_precomputed_similarities(self, paper_graph):
        similarities = compute_similarities(paper_graph)
        index = ScanIndex.build_from_similarities(paper_graph, similarities)
        assert index.query(3, 0.6).num_clusters == 2

    def test_backends_produce_same_clustering(self, paper_graph):
        for backend in ("merge", "hash", "matmul"):
            index = ScanIndex.build(paper_graph, backend=backend)
            clustering = index.query(3, 0.6)
            assert clustering.num_clusters == 2

    def test_jaccard_index(self, paper_graph):
        index = ScanIndex.build(paper_graph, measure="jaccard")
        assert index.measure == "jaccard"
        assert index.query(2, 0.5).num_clusters >= 1

    def test_approximate_build_label(self, community_index):
        graph = community_index.graph
        approx = ScanIndex.build(
            graph, approximate=ApproximationConfig(num_samples=64, degree_threshold=4)
        )
        assert approx.measure == "approx_cosine"

    def test_approximate_config_measure_mismatch_is_reconciled(self, paper_graph):
        index = ScanIndex.build(
            paper_graph,
            measure="jaccard",
            approximate=ApproximationConfig(measure="cosine", num_samples=16),
        )
        assert index.measure == "approx_jaccard"

    def test_weighted_graph(self, weighted_graph):
        index = ScanIndex.build(weighted_graph)
        clustering = index.query(2, 0.3)
        assert clustering.num_vertices == weighted_graph.num_vertices


class TestQueryCorrectness:
    def test_paper_example_clustering(self, paper_index):
        clustering = paper_index.query(3, 0.6, classify_hubs_and_outliers=True)
        assert clustering.num_clusters == 2
        clusters = {frozenset(v.tolist()) for v in clustering.clusters().values()}
        assert clusters == {frozenset({0, 1, 2, 3}), frozenset({5, 6, 7, 10})}
        assert set(clustering.core_vertices().tolist()) == {0, 1, 2, 3, 5, 6, 7}
        assert clustering.hubs().tolist() == [4]
        assert clustering.outliers().tolist() == [8, 9]

    def test_cores_match_scan_definition_across_grid(self, community_index):
        graph = community_index.graph
        similarities = community_index.similarities
        for mu in (2, 3, 5, 8, 16):
            for epsilon in (0.1, 0.3, 0.5, 0.7, 0.9):
                clustering = community_index.query(mu, epsilon)
                reference = scan_clustering(
                    graph, mu, epsilon, similarities=similarities
                )
                assert np.array_equal(clustering.core_mask, reference.core_mask)

    def test_core_partition_matches_scan(self, community_index):
        graph = community_index.graph
        for mu, epsilon in [(2, 0.3), (3, 0.25), (5, 0.2), (4, 0.5)]:
            ours = community_index.query(mu, epsilon)
            reference = scan_clustering(
                graph, mu, epsilon, similarities=community_index.similarities
            )
            # Restricted to core vertices the two partitions must be identical
            # (border vertices may legitimately differ).
            cores = ours.core_vertices()
            mapping = {}
            for v in cores.tolist():
                key = ours.labels[v]
                assert mapping.setdefault(key, reference.labels[v]) == reference.labels[v]

    def test_clustered_non_cores_are_adjacent_to_a_similar_core(self, community_index):
        graph = community_index.graph
        clustering = community_index.query(3, 0.3)
        similarities = community_index.similarities
        for v in range(graph.num_vertices):
            if clustering.labels[v] == UNCLUSTERED or clustering.core_mask[v]:
                continue
            neighbors = graph.neighbors(v)
            assert any(
                clustering.core_mask[int(u)]
                and similarities.of(v, int(u)) >= 0.3
                and clustering.labels[int(u)] == clustering.labels[v]
                for u in neighbors
            )

    def test_repeated_queries_are_reproducible(self, community_index):
        a = community_index.query(2, 0.3)
        b = community_index.query(2, 0.3)
        assert np.array_equal(a.labels, b.labels)

    def test_epsilon_one_only_keeps_identical_neighborhoods(self, paper_index):
        clustering = paper_index.query(2, 1.0)
        assert clustering.num_clustered_vertices == 0

    def test_epsilon_zero_clusters_everything_connected(self, paper_index):
        clustering = paper_index.query(2, 0.0)
        assert clustering.num_clusters == 1
        assert clustering.num_clustered_vertices == 11

    def test_mu_above_max_degree_gives_no_cores(self, paper_index):
        clustering = paper_index.query(64, 0.1)
        assert clustering.num_clusters == 0
        assert not clustering.core_mask.any()

    def test_invalid_parameters(self, paper_index):
        with pytest.raises(ValueError):
            paper_index.query(1, 0.5)
        with pytest.raises(ValueError):
            paper_index.query(2, 1.5)

    def test_get_cores_helper(self, paper_index):
        cores = get_cores(paper_index.core_order, 3, 0.6)
        assert set(cores.tolist()) == {0, 1, 2, 3, 5, 6, 7}

    def test_query_charges_less_work_than_construction(self, community_index):
        query_scheduler = Scheduler()
        community_index.query(5, 0.5, scheduler=query_scheduler)
        assert query_scheduler.counter.work < community_index.construction_report.work / 10


class TestHubsAndOutliers:
    def test_isolated_vertex_is_outlier(self):
        graph = from_edge_list([(0, 1), (1, 2), (0, 2)], num_vertices=4)
        index = ScanIndex.build(graph)
        clustering = index.query(2, 0.5, classify_hubs_and_outliers=True)
        assert clustering.outlier_mask[3]

    def test_hub_requires_two_distinct_clusters(self, paper_index):
        clustering = paper_index.query(3, 0.6)
        classify_unclustered(paper_index.graph, clustering)
        # Vertex 4 (paper 5) borders both clusters; vertices 8, 9 border at most one.
        assert clustering.hub_mask[4]
        assert clustering.outlier_mask[8] and clustering.outlier_mask[9]

    def test_all_clustered_means_no_hubs_or_outliers(self, paper_index):
        clustering = paper_index.query(2, 0.0, classify_hubs_and_outliers=True)
        assert not clustering.hub_mask.any()
        assert not clustering.outlier_mask.any()

    def test_partition_of_unclustered(self, community_index):
        clustering = community_index.query(4, 0.4, classify_hubs_and_outliers=True)
        unclustered = clustering.labels == UNCLUSTERED
        assert np.array_equal(
            clustering.hub_mask | clustering.outlier_mask, unclustered
        )
        assert not (clustering.hub_mask & clustering.outlier_mask).any()


class TestEdgeCases:
    def test_empty_graph_index(self):
        index = ScanIndex.build(empty_graph(5))
        clustering = index.query(2, 0.5)
        assert clustering.num_clusters == 0

    def test_single_edge_graph(self):
        index = ScanIndex.build(from_edge_list([(0, 1)]))
        clustering = index.query(2, 0.5)
        # Both endpoints have identical closed neighborhoods (similarity 1).
        assert clustering.num_clusters == 1
        assert clustering.num_clustered_vertices == 2
