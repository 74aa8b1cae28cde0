"""Serving-loop benchmark: steady-state queries/sec and allocation footprint.

Not a figure of the paper -- this tracks the repo's serving trajectory: the
throughput of answering a repeated-``(μ, ε)`` request stream from a *loaded*
columnar artifact through a :class:`~repro.serve.session.ClusterSession`
(compact answers + ε-snapped result cache), against the cold per-query path
that builds a dense clustering per call.  Three modes are measured over the
same seeded request stream:

``cold``
    ``ScanIndex.query`` per request -- dense labels and core mask.
``uncached``
    ``ClusterSession.serve`` with the cache disabled -- compact results,
    every request computed.
``cached``
    ``ClusterSession.serve`` with the LRU cache -- steady state after one
    warm pass, repeats answered from the cache.

Each mode is timed per request over three passes of the stream (the best
pass counts: single-shot totals on a shared box swing by ±30%, which is
larger than the effects being measured), reporting mean throughput plus the
p50/p99 request latencies of the best pass -- the serving trajectory is
tail-aware, matching the concurrent-tier numbers in
``bench_serve_concurrent.py``.  Each mode is then re-run under
``tracemalloc`` to record the mean per-request peak allocation, which is
where the O(n)-per-query dense arrays of the cold path show up.  Results
accumulate in ``BENCH_serving.json`` next to the repository root.

On ``uncached_speedup``: the uncached mode runs the same query tail as the
cold mode (:func:`~repro.core.query.cluster_compact`) and skips only the
dense scatter, so the two sit close together.  Misses used to run on
scratch recycled across requests (a union-find forest reset in O(batch),
recycled arc-gather buffers); on a 2-vCPU VM that was the slower side
everywhere it was measured, and it was removed.  Fresh scratch against
recycled, per-setting median miss compute: 0.84-0.86x on the 12k-vertex,
464k-edge pipeline-benchmark graph (120 churn reads, 45 explore settings,
two seeds), 0.84-0.96x on planted-partition graphs of 400-9,600 vertices,
and 0.93-0.94x for the batched ``query_many`` planner.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_serving.py            # default ladder
    PYTHONPATH=src python benchmarks/bench_serving.py --tiny     # CI smoke run

or through pytest (smoke-sized, asserts bit-identity and the steady-state
speedup)::

    PYTHONPATH=src python -m pytest benchmarks/bench_serving.py -s
"""

from __future__ import annotations

import argparse
import json
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np

from repro import ScanIndex
from repro.bench import capture_environment, format_table
from repro.bench.recording import add_record_argument, record_payload
from repro.graphs import planted_partition

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_OUTPUT = REPO_ROOT / "BENCH_serving.json"

#: (num_clusters, cluster_size, p_intra, p_inter) ladder.
DEFAULT_LADDER = [
    (10, 40, 0.30, 0.010),
    (25, 50, 0.30, 0.006),
    (60, 60, 0.35, 0.005),
    (120, 80, 0.30, 0.003),
]
TINY_LADDER = [(4, 20, 0.30, 0.02)]

#: Distinct (μ, ε) settings of the repeated workload.
WORKLOAD_MUS = (2, 3, 5, 8)
WORKLOAD_EPSILONS = (0.3, 0.45, 0.6, 0.75)
#: Stream length as a multiple of the distinct-setting count.
STREAM_REPEATS = 12


def request_stream(seed: int = 0) -> list[tuple[int, float]]:
    """A seeded repeated-workload stream over the distinct settings grid."""
    distinct = [(mu, eps) for mu in WORKLOAD_MUS for eps in WORKLOAD_EPSILONS]
    rng = np.random.default_rng(seed)
    picks = rng.integers(0, len(distinct), size=STREAM_REPEATS * len(distinct))
    return [distinct[p] for p in picks.tolist()]


#: Stream passes per timed mode; the best pass is reported.
TIMING_PASSES = 3


def _timed(serve_one, stream) -> tuple[float, list[float]]:
    """Best-of-``TIMING_PASSES`` stream time plus that pass's latencies."""
    best_seconds = float("inf")
    best_latencies: list[float] = []
    for _ in range(TIMING_PASSES):
        latencies = []
        for mu, epsilon in stream:
            started = time.perf_counter()
            serve_one(mu, epsilon)
            latencies.append(time.perf_counter() - started)
        seconds = sum(latencies)
        if seconds < best_seconds:
            best_seconds, best_latencies = seconds, latencies
    return best_seconds, best_latencies


def _mean_peak_alloc(serve_one, stream) -> float:
    """Mean per-request peak traced allocation (bytes) over the stream."""
    tracemalloc.start()
    try:
        total_peak = 0.0
        for mu, epsilon in stream:
            baseline, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            serve_one(mu, epsilon)
            _, peak = tracemalloc.get_traced_memory()
            total_peak += max(peak - baseline, 0)
    finally:
        tracemalloc.stop()
    return total_peak / max(len(stream), 1)


def bench_graph(num_clusters, cluster_size, p_intra, p_inter, *, seed=0) -> dict:
    """Build, persist, reload and serve one graph; return the timing record."""
    graph = planted_partition(
        num_clusters, cluster_size, p_intra=p_intra, p_inter=p_inter, seed=seed
    )
    index = ScanIndex.build(graph)
    with tempfile.TemporaryDirectory() as scratch:
        artifact_path = Path(scratch) / "index.scanidx"
        index.save(artifact_path)
        loaded = ScanIndex.load(artifact_path)

        stream = request_stream(seed)
        distinct = sorted(set(stream))

        def cold(mu, epsilon):
            return loaded.query(mu, epsilon, deterministic_borders=True)

        uncached_session = loaded.session(cache_size=0)

        def uncached(mu, epsilon):
            return uncached_session.serve(mu, epsilon, deterministic_borders=True)

        cached_session = loaded.session()

        def cached(mu, epsilon):
            return cached_session.serve(mu, epsilon, deterministic_borders=True)

        # Bit-identity across every mode, checked on the distinct settings.
        mismatches = 0
        for mu, epsilon in distinct:
            reference = cold(mu, epsilon)
            for served in (uncached(mu, epsilon), cached(mu, epsilon)):
                dense = served.to_clustering()
                if not (
                    np.array_equal(reference.labels, dense.labels)
                    and np.array_equal(reference.core_mask, dense.core_mask)
                ):
                    mismatches += 1

        # The warm pass above put every distinct setting in the cache, so the
        # cached timing below is the steady state the serving loop reaches.
        modes = {}
        for name, serve_one in (("cold", cold), ("uncached", uncached), ("cached", cached)):
            seconds, latencies = _timed(serve_one, stream)
            modes[name] = {
                "seconds": seconds,
                "requests_per_second": len(stream) / max(seconds, 1e-12),
                "p50_seconds": float(np.percentile(latencies, 50)),
                "p99_seconds": float(np.percentile(latencies, 99)),
                "mean_peak_alloc_bytes": _mean_peak_alloc(serve_one, stream),
            }

        stats = cached_session.stats()
    return {
        "num_vertices": graph.num_vertices,
        "num_edges": graph.num_edges,
        "num_arcs": graph.num_arcs,
        "distinct_settings": len(distinct),
        "stream_length": len(stream),
        "modes": modes,
        "steady_state_speedup": (
            modes["cached"]["requests_per_second"]
            / max(modes["cold"]["requests_per_second"], 1e-12)
        ),
        "uncached_speedup": (
            modes["uncached"]["requests_per_second"]
            / max(modes["cold"]["requests_per_second"], 1e-12)
        ),
        "cache_hit_rate": stats["hit_rate"],
        "mismatching_clusterings": mismatches,
    }


def run(ladder, output: Path | None) -> dict:
    """Benchmark every rung of ``ladder`` and optionally write the JSON."""
    results = {
        "benchmark": "serving",
        "environment": capture_environment(),
        "graphs": [bench_graph(*rung) for rung in ladder],
    }
    rows = [
        [
            record["num_arcs"],
            record["stream_length"],
            round(record["modes"]["cold"]["requests_per_second"], 1),
            round(record["modes"]["uncached"]["requests_per_second"], 1),
            round(record["modes"]["cached"]["requests_per_second"], 1),
            round(record["steady_state_speedup"], 2),
            int(record["modes"]["cold"]["mean_peak_alloc_bytes"]),
            int(record["modes"]["cached"]["mean_peak_alloc_bytes"]),
        ]
        for record in results["graphs"]
    ]
    print(format_table(
        ["arcs", "requests", "cold_qps", "uncached_qps", "cached_qps",
         "speedup", "cold_alloc_B", "cached_alloc_B"],
        rows,
    ))
    if output is not None:
        output.write_text(json.dumps(results, indent=2) + "\n")
        print(f"wrote {output}")
    return results


def test_serving_smoke(tmp_path):
    """Smoke run: identical labels, steady-state serving ≥ 2x the cold path."""
    results = run(TINY_LADDER, tmp_path / "BENCH_serving.json")
    record = results["graphs"][0]
    assert (tmp_path / "BENCH_serving.json").exists()
    assert record["mismatching_clusterings"] == 0
    assert record["steady_state_speedup"] >= 2.0
    assert (
        record["modes"]["cached"]["mean_peak_alloc_bytes"]
        < record["modes"]["cold"]["mean_peak_alloc_bytes"]
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tiny", action="store_true", help="CI-sized smoke ladder")
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT,
                        help=f"JSON output path (default: {DEFAULT_OUTPUT})")
    add_record_argument(parser, REPO_ROOT)
    args = parser.parse_args(argv)
    results = run(TINY_LADDER if args.tiny else DEFAULT_LADDER, args.output)
    if args.record is not None:
        record_payload(args.record, results, source="bench_serving.py",
                       smoke=args.tiny)
    for record in results["graphs"]:
        if record["mismatching_clusterings"]:
            print("ERROR: served clusterings disagree with the cold query path")
            return 1
        if record["steady_state_speedup"] < 2.0:
            print("ERROR: steady-state serving fell below 2x the cold path")
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
