"""Hot-path microbenchmark: construction and query across all backends.

Not a figure of the paper -- this seeds the repo's own performance
trajectory.  It times :class:`~repro.core.index.ScanIndex` construction with
every exact similarity backend (and queries against the resulting index) on
planted-partition graphs of growing size, then writes the measurements to
``BENCH_hot_paths.json`` next to the repository root so successive PRs can
compare engines over time.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_hot_paths.py            # default ladder
    PYTHONPATH=src python benchmarks/bench_hot_paths.py --tiny     # CI smoke run

or through pytest (smoke-sized, asserts the batch engine's speedup)::

    PYTHONPATH=src python -m pytest benchmarks/bench_hot_paths.py -s
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

import numpy as np

from repro import ScanIndex
from repro.bench import capture_environment, format_table
from repro.bench.recording import add_record_argument, record_payload
from repro.graphs import planted_partition
from repro.parallel import Scheduler
from repro.similarity import compute_similarities
from repro.similarity.batch import edge_numerators_for_subset

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_OUTPUT = REPO_ROOT / "BENCH_hot_paths.json"

#: (num_clusters, cluster_size, p_intra, p_inter) ladder; the last rung
#: exceeds 100k arcs, where the batch engine's >= 10x construction advantage
#: over the scalar merge engine is asserted.
DEFAULT_LADDER = [
    (10, 40, 0.30, 0.010),
    (25, 50, 0.30, 0.006),
    (60, 60, 0.35, 0.005),
]
TINY_LADDER = [(4, 20, 0.30, 0.02)]

#: Dense matmul is only reasonable while the adjacency matrix stays small.
MATMUL_VERTEX_LIMIT = 2000
QUERY_SETTINGS = [(3, 0.4), (5, 0.6), (8, 0.7)]
QUERY_REPEATS = 5
#: Edge-subset sizes, as fractions of all edges, of the probe-strategy cell.
SUBSET_FRACTIONS = (0.01, 1.0)


def _time(fn, repeats: int = 2) -> tuple[float, object]:
    """Best-of-``repeats`` wall time (first call also warms memoised caches)."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        started = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - started
        best = min(best, elapsed)
    return best, result


def bench_graph(num_clusters, cluster_size, p_intra, p_inter, *, seed=0) -> dict:
    """Construction + query timings of every backend on one graph."""
    graph = planted_partition(
        num_clusters, cluster_size, p_intra=p_intra, p_inter=p_inter, seed=seed
    )
    # Warm the memoised graph structures so every backend is timed on equal
    # footing (the first caller would otherwise pay for the shared caches).
    graph.degree_oriented_csr()
    graph.oriented_search_keys()
    backends = ["batch", "merge", "hash"]
    if graph.num_vertices <= MATMUL_VERTEX_LIMIT:
        backends.append("matmul")

    construction: dict[str, float] = {}
    similarity_only: dict[str, float] = {}
    index = None
    for backend in backends:
        construction[backend], built = _time(lambda: ScanIndex.build(graph, backend=backend))
        similarity_only[backend], _ = _time(
            lambda: compute_similarities(graph, backend=backend)
        )
        if backend == "batch":
            index = built

    def run_queries():
        for mu, epsilon in QUERY_SETTINGS:
            index.query(mu, epsilon)

    query_seconds, _ = _time(lambda: [run_queries() for _ in range(QUERY_REPEATS)])

    # Membership-probe strategies of the subset similarity pass, the one
    # caller of `resolve_probe`: the global composite-key searchsorted vs the
    # bounded per-segment search, on a small seeded subset and on every edge,
    # so the crossover behind the "auto" pick stays visible in the JSON.
    rng = np.random.default_rng(0)
    subset_probe_seconds = {}
    for fraction in SUBSET_FRACTIONS:
        size = max(int(graph.num_edges * fraction), 1)
        subset = np.sort(rng.choice(graph.num_edges, size=size, replace=False))
        subset_probe_seconds[str(fraction)] = {
            strategy: _time(
                lambda strategy=strategy: edge_numerators_for_subset(
                    graph, subset, Scheduler(), probe=strategy
                )
            )[0]
            for strategy in ("global", "bounded")
        }
    return {
        "num_vertices": graph.num_vertices,
        "num_edges": graph.num_edges,
        "num_arcs": graph.num_arcs,
        "construction_seconds": construction,
        "similarity_seconds": similarity_only,
        "query_seconds_per_batch": query_seconds / QUERY_REPEATS,
        "subset_probe_seconds": subset_probe_seconds,
        # The backend only controls the similarity stage; the neighbor/core
        # order sorts are identical work for every backend, so the engine
        # comparison is the similarity construction time.
        "batch_speedup_over_merge": similarity_only["merge"] / similarity_only["batch"],
        "index_build_speedup_over_merge": construction["merge"] / construction["batch"],
    }


def run(ladder, output: Path | None) -> dict:
    """Benchmark every rung of ``ladder`` and optionally write the JSON."""
    results = {
        "benchmark": "hot_paths",
        "environment": capture_environment(),
        "graphs": [bench_graph(*rung) for rung in ladder],
    }
    rows = []
    for record in results["graphs"]:
        for backend, seconds in sorted(record["construction_seconds"].items()):
            rows.append(
                [record["num_arcs"], backend, round(seconds, 4),
                 round(record["query_seconds_per_batch"], 5)]
            )
    print(format_table(["arcs", "backend", "construction_s", "query_batch_s"], rows))
    for record in results["graphs"]:
        print(
            f"arcs={record['num_arcs']}: batch similarity engine is "
            f"{record['batch_speedup_over_merge']:.1f}x faster than merge "
            f"({record['index_build_speedup_over_merge']:.1f}x on the full index build)"
        )
        for fraction, probes in record["subset_probe_seconds"].items():
            print(
                f"arcs={record['num_arcs']}: subset probes ({fraction} of edges) -- "
                f"global {probes['global']*1000:.1f} ms vs bounded "
                f"{probes['bounded']*1000:.1f} ms"
            )
    if output is not None:
        output.write_text(json.dumps(results, indent=2) + "\n")
        print(f"wrote {output}")
    return results


def test_hot_paths_smoke(tmp_path):
    """Smoke run on a tiny graph; asserts the vectorised engine stays ahead."""
    results = run(TINY_LADDER, tmp_path / "BENCH_hot_paths.json")
    record = results["graphs"][0]
    assert (tmp_path / "BENCH_hot_paths.json").exists()
    assert record["batch_speedup_over_merge"] > 1.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tiny", action="store_true", help="CI-sized smoke ladder")
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT,
                        help=f"JSON output path (default: {DEFAULT_OUTPUT})")
    add_record_argument(parser, REPO_ROOT)
    args = parser.parse_args(argv)
    results = run(TINY_LADDER if args.tiny else DEFAULT_LADDER, args.output)
    if args.record is not None:
        record_payload(args.record, results, source="bench_hot_paths.py",
                       smoke=args.tiny)
    largest = results["graphs"][-1]
    if largest["num_arcs"] >= 100_000 and largest["batch_speedup_over_merge"] < 10.0:
        print("WARNING: batch speedup below the expected 10x on the largest graph")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
