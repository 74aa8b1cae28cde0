"""Dynamic-update benchmark: incremental patch vs full rebuild.

Not a figure of the paper -- this tracks the repo's update trajectory: the
cost of applying a batch of edge insertions/deletions to a built index
through :meth:`~repro.core.index.ScanIndex.apply_updates` (similarity
recompute on affected edges only, merge-of-sorted-runs order repair),
against rebuilding the index from scratch on the mutated graph.  Batches
mix deletions of random existing edges with insertions of random non-edges
at several sizes, expressed as a fraction of the edge count.

Every measurement also verifies the tentpole invariant: the patched index
must be **bit-identical** to the rebuilt one -- same graph columns, same
per-edge scores, same neighbor and core orders -- or the benchmark fails.
Results accumulate in ``BENCH_updates.json`` next to the repository root.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_updates.py            # default ladder
    PYTHONPATH=src python benchmarks/bench_updates.py --tiny     # CI smoke run

or through pytest (smoke-sized, asserts bit-identity and the small-batch
speedup)::

    PYTHONPATH=src python -m pytest benchmarks/bench_updates.py -s

The order-repair strategy ledger runs the same ladder once per forced
strategy (``--order-strategy merge`` / ``resort``; ``auto`` keeps the
churn crossover) over its own batch fractions::

    PYTHONPATH=src python benchmarks/bench_updates.py --order-strategy merge \
        --fractions 0.0001 0.001 0.01 0.05 --output /tmp/merge.json
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

import numpy as np

import repro.dynamic.patch as patch_module
from repro import ScanIndex
from repro.bench import capture_environment, format_table
from repro.bench.recording import add_record_argument, record_payload
from repro.dynamic import UpdateBatch
from repro.graphs import from_edge_list, planted_partition
from repro.storage import IndexArtifact

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_OUTPUT = REPO_ROOT / "BENCH_updates.json"

#: Ladder entries: ((num_clusters, cluster_size, p_intra, p_inter), floor)
#: where ``floor`` is the small-batch speedup ``main()`` enforces for that
#: rung.  The dense rungs (average degree ~70-125) match the paper's
#: social-network datasets (orkut stands at ~76), where a rebuild's
#: triangle work is heaviest -- the regime the dynamic subsystem exists
#: for -- and carry the ≥5x acceptance bar.  The first rung is sparse
#: (average degree ~13) so its 0.1% batches stay under the order-repair
#: churn crossover: it is the one that exercises and times the
#: merge-of-sorted-runs strategy in the shipped JSON (a lower floor --
#: sparse graphs have less triangle work for patching to save).
DEFAULT_LADDER = [
    ((150, 40, 0.20, 0.0008), 2.0),
    ((40, 100, 0.55, 0.0040), 5.0),
    ((50, 160, 0.50, 0.0030), 5.0),
    ((60, 200, 0.50, 0.0020), 5.0),
]
TINY_LADDER = [((12, 50, 0.30, 0.008), 1.0)]

#: Batch sizes as fractions of the edge count; the acceptance bar lives at
#: the small end (≤ 1% of edges), where localized repair should win big.
DEFAULT_FRACTIONS = (0.001, 0.01, 0.05)
TINY_FRACTIONS = (0.01, 0.05)

#: Timing repetitions; the minimum is reported (the machines running CI
#: smoke and local ladders both jitter heavily under load).
TIMING_REPEATS = 3

#: ``ORDER_REBUILD_CHURN`` values that force each order-repair strategy
#: (``auto`` leaves the measured crossover in place).
FORCED_CHURN = {"merge": float("inf"), "resort": -1.0}


def make_batch(graph, fraction: float, rng) -> tuple[UpdateBatch, np.ndarray]:
    """A mixed batch: ~half deletions of existing edges, ~half insertions.

    Returns the batch and the mutated canonical edge list (for the rebuild
    reference).  Seeded through ``rng`` so every mode sees the same delta.
    """
    m = graph.num_edges
    n = graph.num_vertices
    size = max(2, int(round(m * fraction)))
    num_del = size // 2
    num_ins = size - num_del
    edge_u, edge_v = graph.edge_list()
    delete_ids = rng.choice(m, size=num_del, replace=False)
    deletions = list(zip(edge_u[delete_ids].tolist(), edge_v[delete_ids].tolist()))
    existing = set(zip(edge_u.tolist(), edge_v.tolist()))
    insertions: list[tuple[int, int]] = []
    while len(insertions) < num_ins:
        candidates = rng.integers(0, n, size=(4 * num_ins, 2))
        for u, v in candidates.tolist():
            if u == v:
                continue
            if u > v:
                u, v = v, u
            if (u, v) in existing:
                continue
            existing.add((u, v))
            insertions.append((u, v))
            if len(insertions) == num_ins:
                break
    keep = np.ones(m, dtype=bool)
    keep[delete_ids] = False
    mutated_edges = np.concatenate(
        [
            np.stack([edge_u[keep], edge_v[keep]], axis=1),
            np.array(insertions, dtype=np.int64).reshape(num_ins, 2),
        ]
    )
    return UpdateBatch.from_edges(insertions, deletions), mutated_edges


def _clone_index(index: ScanIndex) -> ScanIndex:
    """An independent in-memory copy (patching mutates the index in place)."""
    return IndexArtifact.from_index(index).to_index()


def _indexes_identical(patched: ScanIndex, rebuilt: ScanIndex) -> bool:
    """Every stored column of the two indexes matches bit for bit."""
    pairs = [
        (patched.graph.indptr, rebuilt.graph.indptr),
        (patched.graph.indices, rebuilt.graph.indices),
        (patched.graph.arc_edge_ids, rebuilt.graph.arc_edge_ids),
        (patched.similarities.values, rebuilt.similarities.values),
        (patched.neighbor_order.neighbors, rebuilt.neighbor_order.neighbors),
        (patched.neighbor_order.similarities, rebuilt.neighbor_order.similarities),
        (patched.core_order.indptr, rebuilt.core_order.indptr),
        (patched.core_order.vertices, rebuilt.core_order.vertices),
        (patched.core_order.thresholds, rebuilt.core_order.thresholds),
    ]
    return all(np.array_equal(np.asarray(a), np.asarray(b)) for a, b in pairs)


def bench_graph(num_clusters, cluster_size, p_intra, p_inter, *, seed=0,
                fractions=DEFAULT_FRACTIONS) -> dict:
    """Build one graph's index and measure patch vs rebuild per batch size."""
    graph = planted_partition(
        num_clusters, cluster_size, p_intra=p_intra, p_inter=p_inter, seed=seed
    )
    index = ScanIndex.build(graph)
    rng = np.random.default_rng(seed + 1)
    batches = []
    for fraction in fractions:
        batch, mutated_edges = make_batch(graph, fraction, rng)

        # Best-of-N timing for both modes (each patch run gets a fresh
        # clone -- patching mutates in place; clone cost is untimed).
        patch_seconds = float("inf")
        report = None
        patched = None
        for _ in range(TIMING_REPEATS):
            clone = _clone_index(index)
            started = time.perf_counter()
            report = clone.apply_updates(batch)
            patch_seconds = min(patch_seconds, time.perf_counter() - started)
            patched = clone

        # The rebuild alternative starts from the mutated edge list, which
        # is what an operator without the patcher would feed `index build`.
        rebuild_seconds = float("inf")
        rebuilt = None
        for _ in range(TIMING_REPEATS):
            started = time.perf_counter()
            mutated_graph = from_edge_list(
                mutated_edges, num_vertices=graph.num_vertices
            )
            rebuilt = ScanIndex.build(mutated_graph)
            rebuild_seconds = min(rebuild_seconds, time.perf_counter() - started)

        batches.append({
            "fraction": fraction,
            "batch_size": batch.num_insertions + batch.num_deletions,
            "insertions": batch.num_insertions,
            "deletions": batch.num_deletions,
            "affected_edges": report.affected_edges,
            "affected_vertices": report.affected_vertices,
            "order_strategy": report.order_strategy,
            "patch_seconds": patch_seconds,
            "rebuild_seconds": rebuild_seconds,
            "speedup": rebuild_seconds / max(patch_seconds, 1e-12),
            "identical": _indexes_identical(patched, rebuilt),
        })
    # The headline cell is the smallest batch measured -- the regime the
    # subsystem exists for -- not a max over mixed sizes.
    smallest = min(batches, key=lambda b: b["fraction"])
    return {
        "num_vertices": graph.num_vertices,
        "num_edges": graph.num_edges,
        "num_arcs": graph.num_arcs,
        "small_batch_fraction": smallest["fraction"],
        "small_batch_speedup": smallest["speedup"],
        "batches": batches,
    }


def run(ladder, output: Path | None, *, fractions=DEFAULT_FRACTIONS) -> dict:
    """Benchmark every rung of ``ladder`` and optionally write the JSON."""
    graphs = []
    for shape, floor in ladder:
        record = bench_graph(*shape, fractions=fractions)
        record["small_batch_floor"] = floor
        graphs.append(record)
    results = {
        "benchmark": "updates",
        "environment": capture_environment(),
        "graphs": graphs,
    }
    rows = [
        [
            record["num_edges"],
            batch["batch_size"],
            f"{batch['fraction']:.1%}",
            batch["affected_edges"],
            batch["order_strategy"],
            round(batch["patch_seconds"] * 1e3, 2),
            round(batch["rebuild_seconds"] * 1e3, 2),
            round(batch["speedup"], 1),
            "yes" if batch["identical"] else "NO",
        ]
        for record in results["graphs"]
        for batch in record["batches"]
    ]
    print(format_table(
        ["edges", "batch", "fraction", "affected", "orders",
         "patch_ms", "rebuild_ms", "speedup", "identical"],
        rows,
    ))
    if output is not None:
        output.write_text(json.dumps(results, indent=2) + "\n")
        print(f"wrote {output}")
    return results


def test_updates_smoke(tmp_path):
    """Smoke run: patched index bit-identical to rebuilt, patching not slower.

    The smoke ladder is CI-sized (a few thousand edges), where Python call
    overhead dominates both sides -- the bit-identity invariant is the real
    assertion here; the ≥ 5x small-batch bar is enforced by ``main()`` on
    the full dense ladder that produces ``BENCH_updates.json``.
    """
    results = run(
        TINY_LADDER, tmp_path / "BENCH_updates.json", fractions=TINY_FRACTIONS
    )
    assert (tmp_path / "BENCH_updates.json").exists()
    for record in results["graphs"]:
        for batch in record["batches"]:
            assert batch["identical"], "patched index diverged from a rebuild"
            assert batch["affected_edges"] < record["num_edges"]
        assert record["small_batch_speedup"] >= 1.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tiny", action="store_true", help="CI-sized smoke ladder")
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT,
                        help=f"JSON output path (default: {DEFAULT_OUTPUT})")
    parser.add_argument("--fractions", type=float, nargs="+", default=None,
                        help="batch sizes as fractions of the edge count "
                             "(default: the ladder's own)")
    parser.add_argument("--order-strategy", choices=("auto", *FORCED_CHURN),
                        default="auto",
                        help="force the order repair (strategy ledger runs)")
    add_record_argument(parser, REPO_ROOT)
    args = parser.parse_args(argv)
    ladder = TINY_LADDER if args.tiny else DEFAULT_LADDER
    fractions = args.fractions or (TINY_FRACTIONS if args.tiny else DEFAULT_FRACTIONS)
    if args.order_strategy != "auto":
        patch_module.ORDER_REBUILD_CHURN = FORCED_CHURN[args.order_strategy]
    results = run(ladder, args.output, fractions=fractions)
    if args.record is not None:
        record_payload(args.record, results, source="bench_updates.py",
                       smoke=args.tiny)
    for record in results["graphs"]:
        for batch in record["batches"]:
            if not batch["identical"]:
                print("ERROR: patched index diverged from the full rebuild")
                return 1
        floor = record["small_batch_floor"]
        if record["small_batch_speedup"] < floor:
            print(
                f"ERROR: patching the {record['small_batch_fraction']:.1%} batch "
                f"fell below {floor}x the rebuild on the "
                f"{record['num_edges']}-edge graph"
            )
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
