"""Tests for parameter grids and modularity sweeps."""

import numpy as np
import pytest

from repro import ScanIndex
from repro.core import UNCLUSTERED
from repro.graphs import from_edge_list, planted_partition, planted_partition_labels
from repro.quality import (
    adjusted_rand_index,
    best_clustering,
    epsilon_grid,
    modularity_sweep,
    modularity,
    mu_grid,
    parameter_grid,
)


class TestGrids:
    def test_mu_grid_powers_of_two(self):
        assert mu_grid(20) == [2, 4, 8, 16]

    def test_mu_grid_clipped_by_exponent(self):
        assert mu_grid(10 ** 9, upper_exponent=4) == [2, 4, 8, 16]

    def test_mu_grid_minimum(self):
        assert mu_grid(1) == [2]

    def test_epsilon_grid_default(self):
        grid = epsilon_grid()
        assert len(grid) == 99
        assert grid[0] == pytest.approx(0.01)
        assert grid[-1] == pytest.approx(0.99)

    def test_epsilon_grid_custom_step(self):
        grid = epsilon_grid(0.25)
        assert grid.tolist() == pytest.approx([0.25, 0.5, 0.75])

    def test_epsilon_grid_invalid_step(self):
        with pytest.raises(ValueError):
            epsilon_grid(0.0)

    def test_parameter_grid_is_product(self, paper_graph):
        grid = parameter_grid(paper_graph, epsilon_step=0.2)
        mus = {mu for mu, _ in grid}
        assert mus == {2, 4}  # max closed degree is 5
        assert len(grid) == 2 * 4


class TestSweep:
    @pytest.fixture(scope="class")
    def index(self):
        graph = planted_partition(4, 40, p_intra=0.4, p_inter=0.005, seed=2)
        return ScanIndex.build(graph)

    def test_sweep_visits_every_setting(self, index):
        parameters = [(2, 0.2), (2, 0.4), (4, 0.2)]
        result = modularity_sweep(index, parameters=parameters)
        assert [(e.mu, e.epsilon) for e in result.entries] == parameters

    def test_best_is_max_modularity(self, index):
        result = modularity_sweep(index, epsilon_step=0.1)
        assert result.best.modularity == max(e.modularity for e in result.entries)

    def test_best_parameters_tuple(self, index):
        result = modularity_sweep(index, epsilon_step=0.1)
        mu, epsilon = result.best_parameters()
        assert (mu, epsilon) == (result.best.mu, result.best.epsilon)

    def test_sweep_recovers_planted_communities(self, index):
        clustering, best = best_clustering(index, epsilon_step=0.1)
        truth = planted_partition_labels(4, 40)
        assert best.modularity > 0.5
        assert adjusted_rand_index(clustering, truth) > 0.9

    def test_empty_sweep_best_raises(self, index):
        result = modularity_sweep(index, parameters=[])
        with pytest.raises(ValueError):
            _ = result.best


def sparse_community_graph(weighted):
    """Planted communities plus isolated and pendant vertices that never cluster."""
    graph = planted_partition(4, 20, p_intra=0.35, p_inter=0.02, seed=7)
    edge_u, edge_v = graph.edge_list()
    edges = np.column_stack([edge_u, edge_v]).tolist() + [[80, 0], [81, 40]]
    weights = None
    if weighted:
        weights = np.random.default_rng(7).uniform(0.5, 2.0, size=len(edges))
    return from_edge_list(edges, num_vertices=83, weights=weights)


class TestSweepScoring:
    @pytest.fixture(scope="class", params=[False, True], ids=["unweighted", "weighted"])
    def index(self, request):
        return ScanIndex.build(sparse_community_graph(request.param))

    def test_unclustered_constant_equals_modularity_of_no_clusters(self, index):
        graph = index.graph
        labels = np.full(graph.num_vertices, UNCLUSTERED, dtype=np.int64)
        (entry,) = modularity_sweep(index, parameters=[(2**40, 0.3)]).entries
        assert (entry.num_clusters, entry.num_clustered) == (0, 0)
        assert entry.modularity == modularity(graph, labels)
        degrees = np.zeros(graph.num_vertices)
        edge_u, edge_v = graph.edge_list()
        weights = np.ones(graph.num_edges) if graph.edge_weights is None else graph.edge_weights
        np.add.at(degrees, edge_u, weights)
        np.add.at(degrees, edge_v, weights)
        expected = -((degrees / (2.0 * weights.sum())) ** 2).sum()
        assert entry.modularity == pytest.approx(expected, abs=1e-12)

    def test_entries_match_per_setting_queries(self, index):
        graph = index.graph
        parameters = parameter_grid(graph, epsilon_step=0.1) + [(2, 0.0), (2, 1.0), (2**40, 0.3)]
        result = modularity_sweep(index, parameters=parameters)
        assert [(e.mu, e.epsilon) for e in result.entries] == parameters
        best, without_cores = None, 0
        for entry in result.entries:
            clustering = index.query(entry.mu, entry.epsilon)
            score = modularity(graph, clustering)
            assert entry.modularity == pytest.approx(score, abs=1e-12)
            assert entry.num_clusters == clustering.num_clusters
            assert entry.num_clustered == clustering.num_clustered_vertices
            without_cores += not clustering.core_mask.any()
            if best is None or score > best[0]:
                best = (score, entry.mu, entry.epsilon)
        assert without_cores
        assert result.best_parameters() == best[1:]

    def test_invalid_setting_rejected_without_cores(self, index):
        with pytest.raises(ValueError):
            modularity_sweep(index, parameters=[(2**40, 1.5)])
