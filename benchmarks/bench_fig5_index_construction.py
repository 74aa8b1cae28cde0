"""Figure 5: index construction times with exact cosine similarity.

Paper shape: the parallel index construction is 50-151x faster than GS*-Index
and even the single-threaded run beats GS*-Index; the matrix-multiplication
variant wins on the small dense (weighted) graphs.  Here the speedups come
from the simulated work-span runtime, so the factors differ, but the ordering
must hold.

Alongside the simulated accounting, this benchmark emits **measured
wall-clock** rows: every variant's real build time (the ``wall_s`` column of
the report) plus a serial-vs-``jobs=2`` build through the real execution
layer (``repro.parallel.execute``) on the largest dataset, bit-identity
checked -- so the multicore scaling numbers of ``BENCH_construction.json``
land in the paper-figure benchmarks too.
"""

import numpy as np

from repro import ScanIndex
from repro.bench import (
    DATASETS,
    VARIANT_GS_INDEX,
    VARIANT_PARALLEL,
    VARIANT_SEQUENTIAL,
    figure5_index_construction,
)
from repro.bench.datasets import load_dataset
from repro.parallel import execute


def test_fig5_index_construction(benchmark, once, monkeypatch):
    result = once(benchmark, figure5_index_construction)
    print()
    print(result.report())

    measurements = result.extras["measurements"]
    by_key = {(m.dataset, m.variant): m for m in measurements}
    for name, spec in DATASETS.items():
        parallel = by_key[(name, VARIANT_PARALLEL)].simulated_seconds
        sequential = by_key[(name, VARIANT_SEQUENTIAL)].simulated_seconds
        # Parallel construction is never slower than 1 thread.
        assert parallel <= sequential
        # Measured wall-clock rides along with every simulated row.
        assert by_key[(name, VARIANT_PARALLEL)].wall_seconds > 0.0
        if not spec.weighted:
            gs = by_key[(name, VARIANT_GS_INDEX)].simulated_seconds
            # The parallel index beats GS*-Index, and even one thread does.
            assert parallel < gs
            assert sequential < gs

    # Measured multicore build on the largest unweighted dataset: the real
    # execution layer must produce a bit-identical index; the wall-clock of
    # both modes is printed so the figure records measured scaling, not
    # just simulated work/span.
    monkeypatch.setattr(execute, "PARALLEL_FLOOR_ARCS", 0)
    largest = max(
        (name for name, spec in DATASETS.items() if not spec.weighted),
        key=lambda name: load_dataset(name, "bench").num_arcs,
    )
    graph = load_dataset(largest, "bench")
    import time

    started = time.perf_counter()
    serial = ScanIndex.build(graph)
    serial_wall = time.perf_counter() - started
    started = time.perf_counter()
    multicore = ScanIndex.build(graph, jobs=2)
    jobs2_wall = time.perf_counter() - started
    print(
        f"measured wall-clock on {largest} ({graph.num_arcs} arcs): "
        f"serial {serial_wall:.3f}s, jobs=2 {jobs2_wall:.3f}s "
        f"({serial_wall / max(jobs2_wall, 1e-12):.2f}x)"
    )
    assert np.array_equal(serial.similarities.values, multicore.similarities.values)
    assert np.array_equal(
        serial.neighbor_order.neighbors, multicore.neighbor_order.neighbors
    )
    assert np.array_equal(serial.core_order.vertices, multicore.core_order.vertices)
