"""Tests for the real multicore execution layer (``repro.parallel.execute``).

The load-bearing property: a build executed through worker processes is
**bit-identical** to the serial build for every stored column, at every
worker count, including the degenerate shapes (empty graph, one segment,
more workers than segments) -- and ``jobs=1`` takes the literal serial code
path, never touching a pool.
"""

import warnings

import numpy as np
import pytest

from repro import ScanIndex
from repro.graphs import from_edge_list, planted_partition
from repro.graphs.generators import dense_weighted_association
from repro.parallel import execute
from repro.parallel.execute import (
    ParallelExecutor,
    executor_for,
    resolve_jobs,
    visible_cpu_count,
)


@pytest.fixture
def no_floor(monkeypatch):
    """Let tiny test graphs exercise the real pool machinery."""
    monkeypatch.setattr(execute, "PARALLEL_FLOOR_ARCS", 0)


def _columns(index: ScanIndex) -> list[np.ndarray]:
    """Every artifact column of an index, in a fixed order."""
    return [
        np.asarray(column)
        for column in (
            index.graph.indptr,
            index.graph.indices,
            index.graph.arc_edge_ids,
            index.similarities.values,
            index.similarities.numerators
            if index.similarities.numerators is not None
            else np.zeros(0),
            index.neighbor_order.indptr,
            index.neighbor_order.neighbors,
            index.neighbor_order.similarities,
            index.core_order.indptr,
            index.core_order.vertices,
            index.core_order.thresholds,
        )
    ]


def assert_identical(a: ScanIndex, b: ScanIndex) -> None:
    for column_a, column_b in zip(_columns(a), _columns(b)):
        assert np.array_equal(column_a, column_b)


class TestJobsResolution:
    def test_zero_means_all_visible_cores(self):
        assert resolve_jobs(0) == visible_cpu_count()
        assert visible_cpu_count() >= 1

    def test_positive_passthrough(self):
        assert resolve_jobs(1) == 1
        assert resolve_jobs(7) == 7

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="jobs must be >= 0"):
            resolve_jobs(-1)

    def test_jobs_one_never_builds_a_pool(self, monkeypatch):
        def explode(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("jobs=1 must stay on the serial code path")

        monkeypatch.setattr(execute, "ParallelExecutor", explode)
        graph = planted_partition(3, 10, p_intra=0.5, p_inter=0.02, seed=0)
        index = ScanIndex.build(graph, jobs=1)
        assert index.graph.num_edges == graph.num_edges


class TestGracefulDegradation:
    def test_size_floor_falls_back_serial_with_one_warning(self, monkeypatch):
        monkeypatch.setattr(execute, "PARALLEL_FLOOR_ARCS", 10**9)
        execute._warned.discard("size-floor")
        graph = planted_partition(4, 15, p_intra=0.4, p_inter=0.02, seed=1)
        serial = ScanIndex.build(graph)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            first = ScanIndex.build(graph, jobs=4)
            second = ScanIndex.build(graph, jobs=4)
        floor_warnings = [w for w in caught if "size floor" in str(w.message)]
        assert len(floor_warnings) == 1
        assert issubclass(floor_warnings[0].category, RuntimeWarning)
        assert_identical(serial, first)
        assert_identical(serial, second)

    def test_missing_shared_memory_falls_back_serial(self, monkeypatch, no_floor):
        monkeypatch.setattr(execute, "_shared_memory", None)
        execute._warned.discard("shared-memory")
        graph = planted_partition(4, 15, p_intra=0.4, p_inter=0.02, seed=2)
        serial = ScanIndex.build(graph)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            fallback = ScanIndex.build(graph, jobs=2)
        assert any("shared_memory is unavailable" in str(w.message) for w in caught)
        assert_identical(serial, fallback)
        execute._warned.discard("shared-memory")

    def test_executor_for_yields_none_for_serial_jobs(self):
        with executor_for(1, num_arcs=10**9) as executor:
            assert executor is None


class TestBitIdentity:
    @pytest.mark.parametrize("jobs", [2, 3, 8])
    def test_unweighted_build_matches_serial(self, no_floor, jobs):
        graph = planted_partition(8, 25, p_intra=0.4, p_inter=0.02, seed=7)
        serial = ScanIndex.build(graph)
        parallel = ScanIndex.build(graph, jobs=jobs)
        assert_identical(serial, parallel)

    @pytest.mark.parametrize("measure", ["jaccard", "dice"])
    def test_other_measures_match_serial(self, no_floor, measure):
        graph = planted_partition(6, 20, p_intra=0.45, p_inter=0.03, seed=8)
        serial = ScanIndex.build(graph, measure=measure)
        parallel = ScanIndex.build(graph, measure=measure, jobs=3)
        assert_identical(serial, parallel)

    def test_weighted_build_matches_serial(self, no_floor):
        # Weighted graphs keep the similarity pass serial (float summation
        # order), so a jobs=2 build dispatches no task; the whole index must
        # still match bit for bit.
        graph = dense_weighted_association(80, num_modules=4, density=0.3, seed=9)
        serial = ScanIndex.build(graph)
        parallel = ScanIndex.build(graph, jobs=2)
        assert_identical(serial, parallel)

    def test_empty_graph(self, no_floor):
        graph = from_edge_list(np.zeros((0, 2), dtype=np.int64), num_vertices=5)
        serial = ScanIndex.build(graph)
        parallel = ScanIndex.build(graph, jobs=4)
        assert_identical(serial, parallel)

    def test_single_edge(self, no_floor):
        graph = from_edge_list([(0, 1)])
        assert_identical(ScanIndex.build(graph), ScanIndex.build(graph, jobs=4))

    def test_workers_exceed_segments(self, no_floor):
        # A triangle: three one-entry-deep segments, eight workers.
        graph = from_edge_list([(0, 1), (0, 2), (1, 2)])
        assert_identical(ScanIndex.build(graph), ScanIndex.build(graph, jobs=8))

    def test_one_dominant_segment(self, no_floor):
        # A star: one hub row beside many one-arc rows, and no triangle.
        star = [(0, leaf) for leaf in range(1, 40)]
        graph = from_edge_list(star)
        assert_identical(ScanIndex.build(graph), ScanIndex.build(graph, jobs=4))

    def test_update_resort_path_matches_rebuild(self, no_floor):
        graph = planted_partition(6, 25, p_intra=0.4, p_inter=0.03, seed=11)
        index = ScanIndex.build(graph)
        edge_u, edge_v = graph.edge_list()
        # A high-churn batch (well past the crossover) forces the
        # construction-path re-sorts.
        delete = [(int(edge_u[i]), int(edge_v[i])) for i in range(0, graph.num_edges, 4)]
        report = index.apply_updates(deletions=delete)
        assert report.order_strategy == "resort"
        kept = np.ones(graph.num_edges, dtype=bool)
        kept[:: 4] = False
        mutated = from_edge_list(
            np.stack([edge_u[kept], edge_v[kept]], axis=1),
            num_vertices=graph.num_vertices,
        )
        assert_identical(index, ScanIndex.build(mutated))
        assert index.update_lineage[-1]["order_strategy"] == "resort"


class TestExecutorPrimitives:
    def test_segmented_argsort_matches_serial_permutation(self, rng):
        lengths = rng.integers(0, 40, size=50)
        offsets = np.zeros(51, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        total = int(offsets[-1])
        key_span = 17
        keys = rng.integers(0, key_span, total).astype(np.int64)
        segment_ids = np.repeat(np.arange(50, dtype=np.int64), lengths)
        packed = segment_ids * np.int64(key_span) + keys
        universe = 50 * key_span
        expected = np.argsort(packed, kind="stable")
        with ParallelExecutor(3) as executor:
            sharded = executor.segmented_argsort(
                packed, offsets, universe=universe, max_segment=40
            )
        assert np.array_equal(sharded, expected)

    def test_executor_requires_two_jobs(self):
        with pytest.raises(ValueError, match="at least 2 jobs"):
            ParallelExecutor(1)
