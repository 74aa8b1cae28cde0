"""Integration tests: full pipelines across the library's subsystems."""

import numpy as np
import pytest

from repro import ApproximationConfig, ScanIndex
from repro.baselines import GsStarIndex, pscan_clustering, scan_clustering
from repro.graphs import (
    planted_partition,
    planted_partition_labels,
    read_adjacency,
    write_adjacency,
)
from repro.lsh import minhash_required_samples, minhash_uncertainty_interval
from repro.parallel import Scheduler
from repro.quality import adjusted_rand_index, best_clustering, modularity


@pytest.fixture(scope="module")
def social_graph():
    return planted_partition(6, 40, p_intra=0.35, p_inter=0.005, seed=17)


@pytest.fixture(scope="module")
def ground_truth():
    return planted_partition_labels(6, 40)


@pytest.fixture(scope="module")
def index(social_graph):
    return ScanIndex.build(social_graph)


class TestCommunityRecovery:
    def test_index_sweep_recovers_planted_communities(self, index, social_graph, ground_truth):
        clustering, best = best_clustering(index, epsilon_step=0.1)
        assert best.modularity > 0.5
        assert adjusted_rand_index(clustering, ground_truth) > 0.9
        assert modularity(social_graph, clustering) == pytest.approx(best.modularity)

    def test_all_algorithms_agree_on_cores(self, index, social_graph):
        mu, epsilon = 4, 0.25
        from_index = index.query(mu, epsilon)
        from_scan = scan_clustering(social_graph, mu, epsilon, similarities=index.similarities)
        from_gs = GsStarIndex.build(social_graph).query(mu, epsilon)
        from_pscan = pscan_clustering(social_graph, mu, epsilon).clustering
        for other in (from_scan, from_gs, from_pscan):
            assert np.array_equal(from_index.core_mask, other.core_mask)

    def test_approximate_index_recovers_same_communities(self, social_graph, index, ground_truth):
        approx_index = ScanIndex.build(
            social_graph,
            approximate=ApproximationConfig(num_samples=256, seed=3, degree_threshold=4),
        )
        clustering, _ = best_clustering(approx_index, epsilon_step=0.1)
        assert adjusted_rand_index(clustering, ground_truth) > 0.85


class TestTheoremGuidedApproximation:
    def test_theorem_53_sample_count_classifies_edges_correctly(self, social_graph):
        # Pick epsilon/delta, take the Theorem 5.3 sample count, and check that
        # every edge outside the uncertainty interval lands on the correct side
        # of the threshold (standard MinHash, no heuristic fallback).
        epsilon, delta = 0.5, 0.2
        k = minhash_required_samples(
            social_graph.num_vertices, social_graph.num_edges, delta
        )
        exact = ScanIndex.build(social_graph, measure="jaccard").similarities
        approx = ScanIndex.build(
            social_graph,
            measure="jaccard",
            approximate=ApproximationConfig(
                measure="jaccard",
                num_samples=k,
                seed=11,
                use_k_partition_minhash=False,
                degree_threshold=0,
            ),
        ).similarities
        low, high = minhash_uncertainty_interval(epsilon, delta)
        decidable = (exact.values <= low) | (exact.values >= high)
        misclassified = ((exact.values >= epsilon) != (approx.values >= epsilon)) & decidable
        # The theorem promises zero misclassifications w.h.p.; allow a tiny
        # slack for the 1/(nm) failure probability.
        assert int(misclassified.sum()) <= max(1, social_graph.num_edges // 1000)


class TestPersistenceAndCosts:
    def test_clustering_survives_graph_roundtrip(self, tmp_path, social_graph, index):
        path = tmp_path / "social.adj"
        write_adjacency(social_graph, path)
        reloaded = read_adjacency(path)
        rebuilt = ScanIndex.build(reloaded)
        a = index.query(3, 0.3)
        b = rebuilt.query(3, 0.3)
        assert a.same_partition_as(b)

    def test_query_cost_scales_with_output_not_graph(self, index):
        # A query returning almost nothing must charge far less work than one
        # returning the whole graph (Theorem 4.3: work proportional to output).
        tiny_output = Scheduler()
        index.query(2, 0.95, scheduler=tiny_output)
        large_output = Scheduler()
        index.query(2, 0.05, scheduler=large_output)
        assert tiny_output.counter.work < large_output.counter.work / 5

    def test_index_amortises_over_many_queries(self, social_graph, index):
        # Simulated cost of 15 index queries plus construction stays below 15
        # pSCAN runs on the same settings (the paper's break-even argument).
        settings = [(mu, eps) for mu in (2, 4, 8) for eps in (0.2, 0.3, 0.4, 0.5, 0.6)]
        index_scheduler = Scheduler()
        ScanIndex.build(social_graph, scheduler=index_scheduler)
        for mu, eps in settings:
            index.query(mu, eps, scheduler=index_scheduler)
        pscan_scheduler = Scheduler()
        for mu, eps in settings:
            pscan_clustering(social_graph, mu, eps, scheduler=pscan_scheduler)
        assert index_scheduler.simulated_time() < pscan_scheduler.simulated_time()
