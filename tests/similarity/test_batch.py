"""Property tests for the vectorised batch similarity engine.

The batch backend must agree with the scalar ``merge`` and ``hash`` reference
backends to 1e-9 on random weighted and unweighted graphs across all three
measures, including the degenerate shapes (empty graph, star, clique), and it
must charge the scheduler exactly the costs of the merge engine it
vectorises.  On unweighted graphs the numerators are exact integers (closed
common-neighbor counts), so there the batch pass -- at every chunk size,
serial or sharded -- must equal the merge backend bit for bit.
"""

import numpy as np
import pytest

from repro.graphs import complete_graph, empty_graph, from_edge_list
from repro.parallel import Scheduler, execute
from repro.parallel.execute import executor_for
from repro.similarity import compute_similarities, edge_numerators_for_subset
from repro.similarity.batch import DEFAULT_CHUNK_PAIRS, batch_numerators
from repro.similarity.exact import _numerators_merge

MEASURES = ("cosine", "jaccard", "dice")

#: Chunk sizes from one pair per chunk up to the largest chunk measured.
CHUNK_LADDER = sorted({1, 3, 17, DEFAULT_CHUNK_PAIRS, 1 << 22})


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
    @pytest.mark.parametrize("chunk_pairs", CHUNK_LADDER)
    def test_chunk_size_does_not_change_results(self, community_graph, chunk_pairs):
        reference = batch_numerators(community_graph, Scheduler())
        chunked = batch_numerators(community_graph, Scheduler(), chunk_pairs=chunk_pairs)
        np.testing.assert_array_equal(reference, chunked)

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("chunk_pairs", CHUNK_LADDER)
    @pytest.mark.parametrize("seed", range(3))
    def test_unweighted_numerators_are_exact_integers(
        self, monkeypatch, seed, chunk_pairs, jobs
    ):
        # The floor would keep these small graphs serial; jobs=2 must run
        # the sharded pass for real.
        monkeypatch.setattr(execute, "PARALLEL_FLOOR_ARCS", 0)
        rng = np.random.default_rng(300 + seed)
        graph = random_graph(rng, int(rng.integers(20, 60)), float(rng.uniform(0.1, 0.5)))
        adjacency = graph.adjacency_matrix().astype(np.int64)
        edge_u, edge_v = graph.edge_list()
        # |N[u] ∩ N[v]| of an edge: its common neighbors plus u and v.
        expected = ((adjacency @ adjacency)[edge_u, edge_v] + 2).astype(np.float64)
        merge = _numerators_merge(graph, Scheduler())
        with executor_for(jobs, num_arcs=graph.num_arcs) as executor:
            assert (executor is None) == (jobs == 1)
            batch = batch_numerators(
                graph, Scheduler(), chunk_pairs=chunk_pairs, executor=executor
            )
        assert merge.tobytes() == expected.tobytes()
        assert batch.tobytes() == merge.tobytes()

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
        if graph.arc_weights is None:
            # Integer counts: exact whatever the summation order.
            assert partial.tobytes() == full[subset].tobytes()
        else:
            np.testing.assert_allclose(partial, full[subset], atol=1e-9, rtol=0)

    def test_empty_subset(self, community_graph):
        result = edge_numerators_for_subset(
            community_graph, np.zeros(0, dtype=np.int64), Scheduler()
        )
        assert result.shape == (0,)
