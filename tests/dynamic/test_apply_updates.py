"""Tests for the index patcher: bit-identity with a rebuild, plus contracts.

The tentpole invariant of the dynamic subsystem is that
``index.apply_updates(batch)`` leaves the index **bit-identical** to
``ScanIndex.build`` on the mutated graph -- every stored column, both sorted
orders, and every query answer.  These tests check it directly for single
batches under both order-repair strategies (the sorted-run merge and the
churn-crossover resort), exercise the lifecycle side effects (lineage,
mutation epoch, snapper memo), and pin the error contract.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro.dynamic.patch as patch_module
from repro import ApproximationConfig, ScanIndex
from repro.dynamic import UpdateBatch
from repro.graphs import empty_graph, from_edge_list, planted_partition
from repro.parallel import Scheduler
from repro.similarity.exact import EdgeSimilarities

SRC = Path(__file__).resolve().parents[2] / "src"


def mutate_edge_list(graph, insertions, deletions):
    """The mutated canonical edge list, for the rebuild reference."""
    edge_u, edge_v = graph.edge_list()
    dropped = {(min(u, v), max(u, v)) for u, v in deletions}
    edges = [e for e in zip(edge_u.tolist(), edge_v.tolist()) if e not in dropped]
    edges += [(min(u, v), max(u, v)) for u, v in insertions]
    return edges


def assert_indexes_identical(patched, rebuilt):
    pairs = [
        ("graph_indptr", patched.graph.indptr, rebuilt.graph.indptr),
        ("graph_indices", patched.graph.indices, rebuilt.graph.indices),
        ("arc_edge_ids", patched.graph.arc_edge_ids, rebuilt.graph.arc_edge_ids),
        ("similarities", patched.similarities.values, rebuilt.similarities.values),
        ("numerators", patched.similarities.numerators, rebuilt.similarities.numerators),
        ("no_neighbors", patched.neighbor_order.neighbors, rebuilt.neighbor_order.neighbors),
        ("no_similarities", patched.neighbor_order.similarities, rebuilt.neighbor_order.similarities),
        ("co_indptr", patched.core_order.indptr, rebuilt.core_order.indptr),
        ("co_vertices", patched.core_order.vertices, rebuilt.core_order.vertices),
        ("co_thresholds", patched.core_order.thresholds, rebuilt.core_order.thresholds),
    ]
    for name, a, b in pairs:
        assert np.array_equal(np.asarray(a), np.asarray(b)), name


def random_batch(rng, graph, num_ops):
    edge_u, edge_v = graph.edge_list()
    m, n = graph.num_edges, graph.num_vertices
    num_del = min(num_ops // 2, m)
    delete_ids = rng.choice(m, size=num_del, replace=False)
    deletions = list(zip(edge_u[delete_ids].tolist(), edge_v[delete_ids].tolist()))
    existing = set(zip(edge_u.tolist(), edge_v.tolist()))
    insertions = []
    while len(insertions) < num_ops - num_del:
        u, v = sorted(rng.integers(0, n, size=2).tolist())
        if u == v or (u, v) in existing:
            continue
        existing.add((u, v))
        insertions.append((u, v))
    return insertions, deletions


class TestBitIdentity:
    @pytest.mark.parametrize("measure", ["cosine", "jaccard", "dice"])
    @pytest.mark.parametrize("strategy", ["merge", "resort"])
    def test_mixed_batch_matches_rebuild(self, measure, strategy, monkeypatch):
        # Force each order-repair strategy so both stay covered regardless
        # of where the measured churn crossover sits.
        monkeypatch.setattr(
            patch_module,
            "ORDER_REBUILD_CHURN",
            1.1 if strategy == "merge" else -0.1,
        )
        rng = np.random.default_rng(hash((measure, strategy)) % 1000)
        graph = planted_partition(4, 20, p_intra=0.4, p_inter=0.03, seed=7)
        index = ScanIndex.build(graph, measure=measure)
        insertions, deletions = random_batch(rng, graph, 10)
        report = index.apply_updates(insertions=insertions, deletions=deletions)
        assert report.order_strategy == strategy
        rebuilt = ScanIndex.build(
            from_edge_list(
                mutate_edge_list(graph, insertions, deletions),
                num_vertices=graph.num_vertices,
            ),
            measure=measure,
        )
        assert_indexes_identical(index, rebuilt)
        for mu, eps in [(2, 0.3), (3, 0.55), (5, 0.7)]:
            a = index.query(mu, eps)
            b = rebuilt.query(mu, eps)
            assert np.array_equal(a.labels, b.labels)
            assert np.array_equal(a.core_mask, b.core_mask)

    def test_insert_only_and_delete_only(self):
        graph = planted_partition(3, 15, p_intra=0.5, p_inter=0.05, seed=2)
        edge_u, edge_v = graph.edge_list()
        deletions = [(int(edge_u[0]), int(edge_v[0])), (int(edge_u[7]), int(edge_v[7]))]
        index = ScanIndex.build(graph)
        index.apply_updates(deletions=deletions)
        rebuilt = ScanIndex.build(
            from_edge_list(mutate_edge_list(graph, [], deletions),
                           num_vertices=graph.num_vertices)
        )
        assert_indexes_identical(index, rebuilt)

        index.apply_updates(insertions=deletions)   # put them back
        assert_indexes_identical(index, ScanIndex.build(graph))

    def test_delete_every_edge(self):
        graph = from_edge_list([(0, 1), (1, 2), (0, 2)], num_vertices=4)
        index = ScanIndex.build(graph)
        index.apply_updates(deletions=[(0, 1), (1, 2), (0, 2)])
        assert_indexes_identical(index, ScanIndex.build(empty_graph(4)))

    def test_insert_into_empty_graph(self):
        index = ScanIndex.build(empty_graph(5))
        index.apply_updates(insertions=[(0, 1), (1, 2), (0, 2), (3, 4)])
        rebuilt = ScanIndex.build(
            from_edge_list([(0, 1), (1, 2), (0, 2), (3, 4)], num_vertices=5)
        )
        assert_indexes_identical(index, rebuilt)

    def test_inserts_closing_triangles_among_themselves(self):
        # Inserted numerators are 2 + the triangles through the edge, counted
        # on the patched graph: here a triangle of three inserts, one closed
        # by two inserts and an old edge, and one closed by old edges only.
        graph = from_edge_list(
            [(0, 1), (1, 2), (2, 3), (3, 4), (0, 5), (5, 6)], num_vertices=10
        )
        insertions = [(7, 8), (8, 9), (7, 9), (0, 2), (0, 3), (4, 6)]
        index = ScanIndex.build(graph)
        index.apply_updates(insertions=insertions)
        rebuilt = ScanIndex.build(
            from_edge_list(mutate_edge_list(graph, insertions, []), num_vertices=10)
        )
        assert np.array_equal(
            index.similarities.numerators.view(np.uint64),
            rebuilt.similarities.numerators.view(np.uint64),
        )
        assert_indexes_identical(index, rebuilt)

    def test_max_mu_grows_and_shrinks(self):
        graph = from_edge_list([(0, 1), (1, 2)], num_vertices=6)
        index = ScanIndex.build(graph)
        star = [(0, 2), (0, 3), (0, 4), (0, 5)]
        index.apply_updates(insertions=star)
        rebuilt = ScanIndex.build(
            from_edge_list([(0, 1), (1, 2)] + star, num_vertices=6)
        )
        assert index.core_order.max_mu == rebuilt.core_order.max_mu
        assert_indexes_identical(index, rebuilt)
        index.apply_updates(deletions=star)
        assert index.core_order.max_mu == ScanIndex.build(graph).core_order.max_mu
        assert_indexes_identical(index, ScanIndex.build(graph))

    def test_weighted_reweight_applies_atomically(self):
        graph = from_edge_list(
            [(0, 1), (1, 2), (0, 2), (2, 3), (3, 5), (1, 5)],
            weights=[1.0, 2.0, 0.5, 1.5, 1.0, 3.0],
        )
        index = ScanIndex.build(graph, measure="cosine")
        index.apply_updates(insertions=[(3, 5, 0.25)], deletions=[(3, 5)])
        rebuilt = ScanIndex.build(
            from_edge_list(
                [(0, 1), (1, 2), (0, 2), (2, 3), (3, 5), (1, 5)],
                weights=[1.0, 2.0, 0.5, 1.5, 0.25, 3.0],
            ),
            measure="cosine",
        )
        assert np.array_equal(index.graph.indices, rebuilt.graph.indices)
        assert np.allclose(index.graph.arc_weights, rebuilt.graph.arc_weights)
        assert np.allclose(
            index.similarities.values, rebuilt.similarities.values, atol=1e-12
        )

    def test_negative_weights_keep_merge_path_orders_consistent(self, monkeypatch):
        """Negative weighted-cosine scores exercise the full-float-range key
        transform: the merged orders must still equal a re-sort of the
        patched scores."""
        monkeypatch.setattr(patch_module, "ORDER_REBUILD_CHURN", 1.1)  # force merge
        rng = np.random.default_rng(13)
        n = 50
        edges, weights, seen = [], [], set()
        while len(edges) < 200:
            u, v = sorted(rng.integers(0, n, size=2).tolist())
            if u == v or (u, v) in seen:
                continue
            seen.add((u, v))
            edges.append((u, v))
            weights.append(float(rng.normal()))
        graph = from_edge_list(edges, num_vertices=n, weights=weights)
        index = ScanIndex.build(graph, measure="cosine")
        edge_u, edge_v = graph.edge_list()
        report = index.apply_updates(
            insertions=[(0, 49, -0.7)] if not graph.has_edge(0, 49) else [],
            deletions=[(int(edge_u[3]), int(edge_v[3]))],
        )
        assert report.order_strategy == "merge"
        rebuilt = ScanIndex.build_from_similarities(
            index.graph,
            EdgeSimilarities(index.graph, index.similarities.values, "cosine"),
        )
        assert np.array_equal(
            index.neighbor_order.neighbors, rebuilt.neighbor_order.neighbors
        )
        assert np.array_equal(
            index.core_order.vertices, rebuilt.core_order.vertices
        )

    def test_weighted_cosine_scores_match_and_orders_self_consistent(self):
        graph = from_edge_list(
            [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (0, 4), (1, 4)],
            weights=[1.0, 2.0, 0.5, 1.5, 1.0, 3.0, 0.25],
        )
        index = ScanIndex.build(graph, measure="cosine")
        index.apply_updates(insertions=[(1, 3, 2.5)], deletions=[(2, 3)])
        rebuilt = ScanIndex.build(
            from_edge_list(
                [(0, 1), (1, 2), (0, 2), (3, 4), (0, 4), (1, 4), (1, 3)],
                weights=[1.0, 2.0, 0.5, 1.0, 3.0, 0.25, 2.5],
                num_vertices=5,
            ),
            measure="cosine",
        )
        # Weighted float sums depend on summation order: scores agree to
        # tolerance, and the patched orders are exactly the orders of the
        # patched scores (the documented weighted contract).
        assert np.allclose(
            index.similarities.values, rebuilt.similarities.values, atol=1e-12
        )
        self_rebuilt = ScanIndex.build_from_similarities(
            index.graph,
            EdgeSimilarities(index.graph, index.similarities.values, "cosine"),
        )
        assert np.array_equal(
            index.neighbor_order.neighbors, self_rebuilt.neighbor_order.neighbors
        )
        assert np.array_equal(
            index.core_order.vertices, self_rebuilt.core_order.vertices
        )


class TestLifecycle:
    def test_lineage_epoch_and_snapper_refresh(self):
        graph = planted_partition(3, 12, p_intra=0.5, p_inter=0.05, seed=3)
        index = ScanIndex.build(graph)
        session = index.session()
        session.serve(2, 0.5)
        old_boundaries = session.snapper.boundaries
        report = index.apply_updates(insertions=[(0, 35)])
        assert report.insertions == 1 and report.deletions == 0
        assert index.update_lineage == [
            {
                "insertions": 1,
                "deletions": 0,
                "cancelled": 0,
                "affected_edges": report.affected_edges,
                "affected_vertices": report.affected_vertices,
                "order_strategy": report.order_strategy,
            }
        ]
        assert index._mutation_epoch == 1
        # The patched table is the patched scores' distinct values, and the
        # session re-wraps it on its next request.
        assert np.array_equal(
            index.epsilon_boundaries, np.unique(index.similarities.values)
        )
        assert not np.array_equal(index.epsilon_boundaries, old_boundaries)
        session.serve(2, 0.5)
        assert np.shares_memory(session.snapper.boundaries, index.epsilon_boundaries)
        index.apply_updates(deletions=[(0, 35)])
        assert len(index.update_lineage) == 2
        assert index._mutation_epoch == 2

    @pytest.mark.parametrize("strategy", ["merge", "resort"])
    def test_traced_update_attributes_every_stage(self, strategy, monkeypatch, tmp_path):
        import json

        from repro import obs
        from repro.obs.report import summarize_trace

        monkeypatch.setattr(
            patch_module, "ORDER_REBUILD_CHURN", 1.1 if strategy == "merge" else -0.1
        )
        graph = planted_partition(3, 12, p_intra=0.5, p_inter=0.05, seed=3)
        index = ScanIndex.build(graph)
        insertions, deletions = random_batch(np.random.default_rng(5), graph, 6)
        path = tmp_path / "update.jsonl"
        obs.reset()
        obs.configure(path)
        try:
            index.apply_updates(insertions=insertions, deletions=deletions)
        finally:
            obs.finalise()
            obs.reset()
        spans = {}
        for line in path.read_text().splitlines():
            record = json.loads(line)
            if record["kind"] == "span":
                assert record["name"] not in spans
                spans[record["name"]] = record

        def inside(child, parent):
            start, end = spans[parent]["ts"], spans[parent]["ts"] + spans[parent]["dur"]
            return start <= spans[child]["ts"] and spans[child]["ts"] + spans[child]["dur"] <= end

        stages = ["dynamic.splice", "dynamic.similarity_delta", "dynamic.order_repair"]
        repairs = ["dynamic.order_repair.neighbor_order", "dynamic.order_repair.core_order"]
        # A resort runs the construction builders, whose own stages nest in
        # the repair span of their order.
        layers = {
            f"core.{order}.{layer}": f"dynamic.order_repair.{order}"
            for order in ("neighbor_order", "core_order")
            for layer in ("rank", "pack", "sort", "gather")
        } if strategy == "resort" else {}
        assert set(spans) == {"dynamic.apply", *stages, *repairs, *layers}
        assert all(inside(stage, "dynamic.apply") for stage in stages)
        assert all(inside(repair, "dynamic.order_repair") for repair in repairs)
        assert all(inside(layer, repair) for layer, repair in layers.items())
        assert spans["dynamic.order_repair"]["attrs"]["strategy"] == strategy
        # The stages run one after another, so their durations fit the parent's.
        assert sum(spans[stage]["dur"] for stage in stages) <= spans["dynamic.apply"]["dur"]
        assert set(summarize_trace(path)["spans"]) == set(spans)

    @pytest.mark.parametrize("strategy", ["merge", "resort"])
    def test_unweighted_update_derives_no_edge_list(self, strategy, monkeypatch, tmp_path):
        """A loaded artifact patched by an unweighted batch leaves both
        graphs' canonical edge lists underived, and still equals a rebuild."""
        monkeypatch.setattr(
            patch_module, "ORDER_REBUILD_CHURN", 1.1 if strategy == "merge" else -0.1
        )
        graph = planted_partition(4, 20, p_intra=0.4, p_inter=0.03, seed=7)
        n = graph.num_vertices
        insertions, deletions = random_batch(np.random.default_rng(9), graph, 12)
        # Inserts past the end of row u: one ranked at a later row's first
        # forward arc, one after every old edge (no later row has one).
        for u, v in ((0, n - 2), (n - 2, n - 1)):
            if not graph.has_edge(u, v):
                insertions.append((u, v))
        ScanIndex.build(graph).save(tmp_path / "a")
        index = ScanIndex.load(tmp_path / "a")
        old_graph = index.graph
        index.apply_updates(insertions=insertions, deletions=deletions)
        assert old_graph._edge_list is None
        assert index.graph._edge_list is None
        rebuilt = ScanIndex.build(
            from_edge_list(mutate_edge_list(graph, insertions, deletions), num_vertices=n)
        )
        assert_indexes_identical(index, rebuilt)

    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("strategy", ["merge", "resort"])
    def test_update_process_never_imports_numpy_ma(self, strategy, weighted, tmp_path):
        """``repro update`` runs one process per delta file: its dedupes go
        through ``sorted_unique``, so the process never pays plain
        ``np.unique``'s import of ``numpy.ma`` (13-21 ms in a fresh
        interpreter)."""
        graph = planted_partition(4, 20, p_intra=0.4, p_inter=0.03, seed=7)
        if weighted:
            edge_u, edge_v = graph.edge_list()
            weights = np.random.default_rng(3).uniform(0.5, 2.0, size=edge_u.size)
            graph = from_edge_list(
                list(zip(edge_u.tolist(), edge_v.tolist())), weights=weights.tolist()
            )
        insertions, deletions = random_batch(np.random.default_rng(9), graph, 12)
        if weighted:
            insertions = [(u, v, 1.5) for u, v in insertions]
        ScanIndex.build(graph).save(tmp_path / "a")
        code = (
            "import sys\n"
            "import repro.dynamic.patch as patch\n"
            "from repro import ScanIndex\n"
            "from repro.dynamic import UpdateBatch\n"
            f"patch.ORDER_REBUILD_CHURN = {1.1 if strategy == 'merge' else -0.1}\n"
            f"index = ScanIndex.load({str(tmp_path / 'a')!r})\n"
            f"batch = UpdateBatch.from_edges({insertions!r}, {deletions!r})\n"
            "patch.apply_updates(index, batch)\n"
            "sys.exit(int('numpy.ma' in sys.modules))\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC)
        result = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True
        )
        assert result.returncode == 0, result.stderr or "numpy.ma was imported"

    def test_empty_batch_is_a_true_no_op(self):
        graph = from_edge_list([(0, 1), (1, 2)], num_vertices=3)
        index = ScanIndex.build(graph)
        before = index.similarities.values
        report = index.apply_updates(UpdateBatch.from_edges([(0, 2)], [(0, 2)]))
        assert report.cancelled == 1 and report.order_strategy == ""
        assert index.similarities.values is before
        assert index.update_lineage == []
        assert getattr(index, "_mutation_epoch", 0) == 0

    def test_batch_and_keyword_edges_are_mutually_exclusive(self):
        index = ScanIndex.build(from_edge_list([(0, 1)], num_vertices=2))
        with pytest.raises(ValueError, match="not both"):
            index.apply_updates(
                UpdateBatch.from_edges([(0, 1)], []), insertions=[(0, 1)]
            )


class TestCostModel:
    def test_update_work_and_span_pinned(self):
        # One fixed batch whose inserts close a triangle among themselves;
        # the charge predates counting inserted numerators off the triangle
        # listing and must not move with it.
        graph = planted_partition(4, 20, p_intra=0.4, p_inter=0.03, seed=7)
        index = ScanIndex.build(graph)
        scheduler = Scheduler()
        index.apply_updates(
            insertions=[(0, 2), (0, 9), (2, 9), (5, 41), (17, 61)],
            deletions=[(0, 11), (5, 10), (12, 14)],
            scheduler=scheduler,
        )
        assert scheduler.counter.work == pytest.approx(7577.159837124661, rel=1e-12)
        assert scheduler.counter.span == pytest.approx(59.783348545878624, rel=1e-12)


class TestErrorContract:
    @pytest.fixture()
    def index(self):
        return ScanIndex.build(
            from_edge_list([(0, 1), (1, 2), (0, 2), (2, 3)], num_vertices=5)
        )

    def test_inserting_present_edge_rejected(self, index):
        with pytest.raises(ValueError, match=r"insert edge \(0, 1\).*already"):
            index.apply_updates(insertions=[(1, 0)])

    def test_deleting_absent_edge_rejected(self, index):
        with pytest.raises(ValueError, match=r"delete edge \(0, 3\).*not in"):
            index.apply_updates(deletions=[(0, 3)])

    def test_out_of_range_endpoint_rejected(self, index):
        with pytest.raises(ValueError, match="out of range"):
            index.apply_updates(insertions=[(0, 99)])

    def test_weighted_insert_into_unweighted_graph_rejected(self, index):
        with pytest.raises(ValueError, match="unweighted"):
            index.apply_updates(insertions=[(0, 3, 2.0)])

    def test_lsh_approximate_index_rejected(self):
        graph = planted_partition(3, 12, p_intra=0.5, p_inter=0.05, seed=4)
        index = ScanIndex.build(
            graph, approximate=ApproximationConfig(num_samples=32)
        )
        with pytest.raises(ValueError, match="LSH-approximate"):
            index.apply_updates(insertions=[(0, 35)])

    def test_failed_validation_leaves_index_untouched(self, index):
        values = index.similarities.values
        with pytest.raises(ValueError):
            index.apply_updates(insertions=[(0, 4)], deletions=[(0, 3)])
        assert index.similarities.values is values
        assert index.update_lineage == []

    def test_hand_assembled_scores_fall_back_without_numerators(self):
        # An EdgeSimilarities without numerators (e.g. computed elsewhere)
        # still patches correctly -- via the wider recompute path.
        graph = planted_partition(3, 12, p_intra=0.5, p_inter=0.05, seed=5)
        base = ScanIndex.build(graph)
        index = ScanIndex.build_from_similarities(
            graph,
            EdgeSimilarities(graph, base.similarities.values.copy(), "cosine"),
        )
        assert index.similarities.numerators is None
        index.apply_updates(insertions=[(0, 30)])
        rebuilt = ScanIndex.build(
            from_edge_list(
                mutate_edge_list(graph, [(0, 30)], []),
                num_vertices=graph.num_vertices,
            )
        )
        assert np.array_equal(index.similarities.values, rebuilt.similarities.values)
        assert np.array_equal(
            index.neighbor_order.neighbors, rebuilt.neighbor_order.neighbors
        )
        assert index.similarities.numerators is None
