"""Property tests for the vectorised batch similarity engine.

The batch backend must agree with the scalar ``merge`` and ``hash`` reference
backends to 1e-9 on random weighted and unweighted graphs across all three
measures, including the degenerate shapes (empty graph, star, clique), and it
must charge the scheduler exactly the costs of the merge engine it
vectorises.
"""

import numpy as np
import pytest

from repro.graphs import complete_graph, empty_graph, from_edge_list
from repro.parallel import Scheduler
from repro.similarity import compute_similarities, edge_numerators_for_subset
from repro.similarity.batch import batch_numerators

MEASURES = ("cosine", "jaccard", "dice")


def random_graph(rng, num_vertices, edge_probability, *, weighted=False):
    """Erdős–Rényi-style graph (optionally with random positive weights)."""
    upper = np.triu(rng.random((num_vertices, num_vertices)) < edge_probability, k=1)
    edge_u, edge_v = np.nonzero(upper)
    edges = np.stack([edge_u, edge_v], axis=1)
    weights = 0.1 + rng.random(edges.shape[0]) if weighted else None
    return from_edge_list(edges, num_vertices=num_vertices, weights=weights)


def star_graph(num_leaves):
    return from_edge_list([(0, i) for i in range(1, num_leaves + 1)])


class TestAgreesWithReferenceBackends:
    @pytest.mark.parametrize("measure", MEASURES)
    @pytest.mark.parametrize("seed", range(5))
    def test_random_unweighted_graphs(self, measure, seed):
        rng = np.random.default_rng(seed)
        graph = random_graph(rng, int(rng.integers(2, 60)), float(rng.uniform(0.05, 0.5)))
        batch = compute_similarities(graph, measure=measure, backend="batch")
        merge = compute_similarities(graph, measure=measure, backend="merge")
        hashed = compute_similarities(graph, measure=measure, backend="hash")
        np.testing.assert_allclose(batch.values, merge.values, atol=1e-9, rtol=0)
        np.testing.assert_allclose(batch.values, hashed.values, atol=1e-9, rtol=0)

    @pytest.mark.parametrize("seed", range(5))
    def test_random_weighted_graphs_cosine(self, seed):
        rng = np.random.default_rng(100 + seed)
        graph = random_graph(
            rng, int(rng.integers(2, 50)), float(rng.uniform(0.1, 0.5)), weighted=True
        )
        batch = compute_similarities(graph, backend="batch")
        merge = compute_similarities(graph, backend="merge")
        hashed = compute_similarities(graph, backend="hash")
        np.testing.assert_allclose(batch.values, merge.values, atol=1e-9, rtol=0)
        np.testing.assert_allclose(batch.values, hashed.values, atol=1e-9, rtol=0)

    @pytest.mark.parametrize("measure", MEASURES)
    def test_empty_graph(self, measure):
        similarities = compute_similarities(empty_graph(4), measure=measure, backend="batch")
        assert len(similarities) == 0

    @pytest.mark.parametrize("measure", MEASURES)
    def test_star_graph(self, measure):
        graph = star_graph(20)
        batch = compute_similarities(graph, measure=measure, backend="batch")
        merge = compute_similarities(graph, measure=measure, backend="merge")
        np.testing.assert_allclose(batch.values, merge.values, atol=1e-9, rtol=0)

    @pytest.mark.parametrize("measure", MEASURES)
    def test_clique(self, measure):
        graph = complete_graph(7)
        batch = compute_similarities(graph, measure=measure, backend="batch")
        assert np.allclose(batch.values, 1.0)

    def test_single_edge(self):
        graph = from_edge_list([(0, 1)])
        batch = compute_similarities(graph, backend="batch")
        merge = compute_similarities(graph, backend="merge")
        np.testing.assert_allclose(batch.values, merge.values, atol=1e-9, rtol=0)

    def test_edgeless_vertices_graph(self):
        graph = from_edge_list([(0, 1), (1, 2)], num_vertices=10)
        batch = compute_similarities(graph, backend="batch")
        merge = compute_similarities(graph, backend="merge")
        np.testing.assert_allclose(batch.values, merge.values, atol=1e-9, rtol=0)


class TestChunking:
    @pytest.mark.parametrize("chunk_pairs", [1, 3, 17, 1 << 22])
    def test_chunk_size_does_not_change_results(self, community_graph, chunk_pairs):
        reference = batch_numerators(community_graph, Scheduler())
        chunked = batch_numerators(community_graph, Scheduler(), chunk_pairs=chunk_pairs)
        np.testing.assert_array_equal(reference, chunked)

    def test_invalid_chunk_size_rejected(self, triangle_graph):
        with pytest.raises(ValueError):
            batch_numerators(triangle_graph, Scheduler(), chunk_pairs=0)


class TestCostModel:
    def test_charges_identical_to_merge(self, community_graph, weighted_graph):
        for graph in (community_graph, weighted_graph):
            batch_scheduler, merge_scheduler = Scheduler(), Scheduler()
            compute_similarities(graph, backend="batch", scheduler=batch_scheduler)
            compute_similarities(graph, backend="merge", scheduler=merge_scheduler)
            assert batch_scheduler.counter.work == merge_scheduler.counter.work
            assert batch_scheduler.counter.span == merge_scheduler.counter.span

    def test_span_stays_logarithmic(self, community_graph):
        scheduler = Scheduler()
        compute_similarities(community_graph, backend="batch", scheduler=scheduler)
        assert scheduler.counter.span < scheduler.counter.work / 50


class TestSubsetNumerators:
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_full_batch_on_subset(self, seed):
        rng = np.random.default_rng(200 + seed)
        graph = random_graph(rng, 40, 0.2, weighted=bool(seed % 2))
        full = batch_numerators(graph, Scheduler())
        subset = rng.choice(graph.num_edges, size=graph.num_edges // 2, replace=False)
        partial = edge_numerators_for_subset(graph, subset, Scheduler())
        np.testing.assert_allclose(partial, full[subset], atol=1e-9, rtol=0)

    def test_empty_subset(self, community_graph):
        result = edge_numerators_for_subset(
            community_graph, np.zeros(0, dtype=np.int64), Scheduler()
        )
        assert result.shape == (0,)


class TestProbeStrategies:
    """Both membership-probe strategies of the subset pass agree exactly."""

    @pytest.mark.parametrize("seed", range(3))
    def test_bounded_and_global_probes_agree(self, seed):
        rng = np.random.default_rng(300 + seed)
        graph = random_graph(rng, 35, 0.25, weighted=bool(seed % 2))
        every_edge = np.arange(graph.num_edges)
        bounded = edge_numerators_for_subset(
            graph, every_edge, Scheduler(), probe="bounded"
        )
        global_probe = edge_numerators_for_subset(
            graph, every_edge, Scheduler(), probe="global"
        )
        np.testing.assert_array_equal(bounded, global_probe)
        # The all-edge pass (always the global probe) gives the same scores.
        np.testing.assert_allclose(
            batch_numerators(graph, Scheduler()), global_probe, atol=1e-9, rtol=0
        )

    @pytest.mark.parametrize("seed", range(2))
    def test_subset_probes_agree(self, seed):
        rng = np.random.default_rng(400 + seed)
        graph = random_graph(rng, 30, 0.3, weighted=False)
        subset = rng.choice(graph.num_edges, size=graph.num_edges // 2, replace=False)
        bounded = edge_numerators_for_subset(graph, subset, Scheduler(), probe="bounded")
        global_probe = edge_numerators_for_subset(
            graph, subset, Scheduler(), probe="global"
        )
        np.testing.assert_array_equal(bounded, global_probe)

    def test_unknown_probe_rejected(self, triangle_graph):
        with pytest.raises(ValueError):
            edge_numerators_for_subset(
                triangle_graph, np.arange(1), Scheduler(), probe="psychic"
            )

    def test_auto_resolves_by_segment_length(self):
        from repro.similarity.batch import resolve_probe

        assert resolve_probe("auto", 2) == "bounded"
        assert resolve_probe("auto", 1000) == "global"
        assert resolve_probe("bounded", 1000) == "bounded"
        assert resolve_probe("global", 2) == "global"

    def test_auto_skips_the_key_build_for_few_probes(self):
        from repro.similarity.batch import UNBUILT_KEYS_ARCS_PER_PROBE, resolve_probe

        arcs = 100 * UNBUILT_KEYS_ARCS_PER_PROBE
        assert resolve_probe("auto", 1000, probes=99, unbuilt_key_arcs=arcs) == "bounded"
        assert resolve_probe("auto", 1000, probes=100, unbuilt_key_arcs=arcs) == "global"
        assert resolve_probe("auto", 1000, probes=1, unbuilt_key_arcs=0) == "global"
        # End to end: a few edges of a fresh high-degree graph are probed
        # without building its arc keys, and agree with the global probe.
        graph = complete_graph(200)
        subset = np.arange(2)
        auto = edge_numerators_for_subset(graph, subset, Scheduler())
        assert not graph.has_arc_search_keys
        global_probe = edge_numerators_for_subset(
            graph, subset, Scheduler(), probe="global"
        )
        assert graph.has_arc_search_keys
        np.testing.assert_array_equal(auto, global_probe)
