"""Tests for modularity and coverage."""

import numpy as np
import pytest

from repro.core import UNCLUSTERED
from repro.graphs import (
    complete_graph,
    from_edge_list,
    from_weighted_edge_list,
    planted_partition,
    planted_partition_labels,
)
from repro.quality import coverage, modularity


class TestModularity:
    def test_two_disjoint_triangles_perfectly_clustered(self):
        graph = from_edge_list([(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        labels = np.array([0, 0, 0, 1, 1, 1])
        # Known value: 1/2 - 2 * (9/144) ... compute from the formula directly:
        # each cluster has 3 internal edges of 6 total and degree sum 6 of 12.
        expected = 2 * (3 / 6 - (6 / 12) ** 2)
        assert modularity(graph, labels) == pytest.approx(expected)

    def test_single_cluster_is_zero(self, paper_graph):
        labels = np.zeros(11, dtype=np.int64)
        assert modularity(paper_graph, labels) == pytest.approx(0.0)

    def test_all_singletons_negative(self, paper_graph):
        labels = np.arange(11)
        assert modularity(paper_graph, labels) < 0.0

    def test_never_exceeds_one(self, community_graph):
        labels = planted_partition_labels(4, 30)
        assert modularity(community_graph, labels) <= 1.0

    def test_planted_partition_ground_truth_scores_high(self):
        graph = planted_partition(5, 40, p_intra=0.4, p_inter=0.005, seed=1)
        labels = planted_partition_labels(5, 40)
        random_labels = np.random.default_rng(0).integers(0, 5, size=200)
        assert modularity(graph, labels) > 0.5
        assert modularity(graph, labels) > modularity(graph, random_labels) + 0.3

    def test_accepts_clustering_object(self, paper_graph):
        from repro import ScanIndex

        clustering = ScanIndex.build(paper_graph).query(3, 0.6)
        assert isinstance(modularity(paper_graph, clustering), float)

    def test_weighted_graph_uses_weights(self):
        # Two heavy edges inside "cluster 0", one light edge crossing.
        graph = from_weighted_edge_list([(0, 1, 10.0), (2, 3, 10.0), (1, 2, 0.1)])
        good = modularity(graph, np.array([0, 0, 1, 1]))
        bad = modularity(graph, np.array([0, 1, 0, 1]))
        assert good > bad

    def test_empty_graph_is_zero(self):
        graph = from_edge_list([], num_vertices=3)
        assert modularity(graph, np.zeros(3, dtype=np.int64)) == 0.0

    def test_wrong_length_labels(self, paper_graph):
        with pytest.raises(ValueError):
            modularity(paper_graph, np.zeros(5, dtype=np.int64))

    def test_complete_graph_split_is_negative_or_zero(self):
        graph = complete_graph(6)
        labels = np.array([0, 0, 0, 1, 1, 1])
        assert modularity(graph, labels) <= 0.0


class TestCoverage:
    def test_full_coverage(self):
        graph = from_edge_list([(0, 1), (1, 2), (0, 2)])
        assert coverage(graph, np.zeros(3, dtype=np.int64)) == 1.0

    def test_no_coverage_when_all_unclustered(self, paper_graph):
        labels = np.full(11, UNCLUSTERED)
        assert coverage(paper_graph, labels) == 0.0

    def test_partial_coverage(self):
        graph = from_edge_list([(0, 1), (1, 2), (2, 3)])
        labels = np.array([0, 0, 1, 1])
        assert coverage(graph, labels) == pytest.approx(2 / 3)

    def test_empty_graph(self):
        graph = from_edge_list([], num_vertices=2)
        assert coverage(graph, np.zeros(2, dtype=np.int64)) == 0.0
