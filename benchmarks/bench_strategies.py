"""Strategy ledger: one head-to-head cell per strategy pair the code picks between.

Not a figure of the paper, and not a pipeline timing (``perfbench/`` times
build, open, sweep, query, serving and updates end to end).  Where the
program chooses between two interchangeable strategies by a measured
crossover, this runner times both sides on the same input, records what
the program picks there, and checks that both sides give identical output:

``CODE_BITS``
    The ``NO`` and ``CO`` builds of one serial index, each run with its
    keys packed into int64 codes for one ``np.sort`` (A) and forced onto
    the wide-key ``np.lexsort`` fallback (B) by setting
    :data:`~repro.parallel.sorting.CODE_BITS` below every input's width.
    The program packs whenever the fields fit, as they do on every rung.
``ORDER_REBUILD_CHURN``
    :meth:`~repro.core.index.ScanIndex.apply_updates` with the order repair
    forced to merge (A) or to resort (B) through the constant, on mixed
    batches of 0.1%, 1% and 5% of the edges.

Times are the best of three runs (one with ``--smoke``); ``A/B`` is side A's
time over side B's, so below 1 side A wins.  The exit status is 1 when any
cell's two sides differ.  Run::

    PYTHONPATH=src python benchmarks/bench_strategies.py
    PYTHONPATH=src python benchmarks/bench_strategies.py --smoke
    PYTHONPATH=src python benchmarks/bench_strategies.py --output ledger.json
    PYTHONPATH=src python -m repro bench record ledger.json --db traj.sqlite
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

import numpy as np

import repro.dynamic.patch as patch_module
import repro.parallel.sorting as sorting
from repro import ScanIndex
from repro.bench import capture_environment, format_table
from repro.core import build_core_order, build_neighbor_order
from repro.dynamic import UpdateBatch
from repro.graphs import from_edge_list, planted_partition
from repro.storage import IndexArtifact


def _hub_graph(clusters, size, p_intra, p_inter, hubs, hub_degree, seed):
    """A planted partition plus ``hubs`` extra vertices of ``hub_degree`` each.

    The hubs' degree sets the ``NO`` sort's max segment and the ``CO``
    sort's segment count.
    """
    base = planted_partition(clusters, size, p_intra=p_intra, p_inter=p_inter, seed=seed)
    rng = np.random.default_rng(seed + 1)
    edge_u, edge_v = base.edge_list()
    pieces = [np.stack([edge_u, edge_v], axis=1)]
    for hub in range(base.num_vertices, base.num_vertices + hubs):
        spokes = rng.choice(base.num_vertices, size=hub_degree, replace=False)
        pieces.append(np.stack([spokes, np.full_like(spokes, hub)], axis=1))
    return from_edge_list(np.concatenate(pieces), num_vertices=base.num_vertices + hubs)


def _partition(clusters, size, p_intra, p_inter, seed=1):
    return lambda: planted_partition(
        clusters, size, p_intra=p_intra, p_inter=p_inter, seed=seed
    )


#: Per run flavour: (sort rungs, churn rungs, batch fractions, timing
#: repeats).  A rung is (name, graph loader); the full sort rungs are the
#: ``perfbench`` input shape, a hub-tailed graph, hub graphs whose ``NO``
#: and ``CO`` max segments run from ~100 to ~1,500, and two planted
#: partitions of ~190k ``NO`` entries with max segments ~90 and ~30; the
#: churn rungs are one sparse (average degree ~13) and one dense (~70)
#: graph.
FULL = (
    [("perfbench", _partition(60, 200, 0.30, 0.0015)),
     ("hubs", lambda: _hub_graph(30, 120, 0.25, 0.002, 6, 3000, seed=21)),
     ("hub-100", lambda: _hub_graph(2, 100, 0.50, 0.002, 10, 100, seed=35)),
     ("hub-200", lambda: _hub_graph(2, 100, 0.50, 0.002, 10, 195, seed=37)),
     ("hub-350", lambda: _hub_graph(4, 100, 0.50, 0.002, 10, 345, seed=39)),
     ("hub-500", lambda: _hub_graph(5, 100, 0.50, 0.002, 10, 490, seed=45)),
     ("hub-700", lambda: _hub_graph(7, 100, 0.50, 0.002, 10, 690, seed=31)),
     ("hub-1500", lambda: _hub_graph(15, 100, 0.50, 0.002, 10, 1490, seed=33)),
     ("partition-193k", _partition(15, 200, 0.30, 0.0015)),
     ("partition-184k", _partition(300, 40, 0.30, 0.0003))],
    [("sparse", _partition(150, 40, 0.20, 0.0008)),
     ("dense", _partition(40, 100, 0.55, 0.0040))],
    (0.001, 0.01, 0.05),
    3,
)
SMOKE = (
    [("small", _partition(12, 40, 0.35, 0.01)),
     ("small-hub", lambda: _hub_graph(12, 100, 0.10, 0.002, 1, 1100, seed=3))],
    [("small", _partition(12, 50, 0.30, 0.008))],
    (0.001, 0.05),
    1,
)


def _best_of(repeats, run, setup=lambda: None):
    """``(best seconds, last result)`` of ``run(setup())``; setup is untimed."""
    best, result = float("inf"), None
    for _ in range(repeats):
        state = setup()
        started = time.perf_counter()
        result = run(state)
        best = min(best, time.perf_counter() - started)
    return best, result


def _cell(pair, rung, size, auto, a, b, a_seconds, b_seconds, identical):
    # The store keys every entry of a top-level ``graphs`` list by its
    # ``name``, so each ledger row keeps one label across recorded runs.
    return {
        "name": f"{pair}/{rung}/{size}",
        "pair": pair, "rung": rung, "size": size, "auto": auto,
        "a": a, "b": b, "a_seconds": a_seconds, "b_seconds": b_seconds,
        "ratio": a_seconds / max(b_seconds, 1e-12),
        "identical": bool(identical),
    }


def sort_cells(rung, graph, repeats):
    """Packed codes vs the wide-key fallback for the ``NO`` and ``CO`` builds."""
    similarities = ScanIndex.build(graph).similarities
    neighbor_order, boundaries, ranks = build_neighbor_order(graph, similarities)
    builds = {
        "NO": (lambda: build_neighbor_order(graph, similarities),
               (graph.num_vertices, boundaries.size, graph.max_degree)),
        "CO": (lambda: build_core_order(graph, neighbor_order, ranks),
               (graph.max_degree, boundaries.size, graph.num_vertices)),
    }

    def columns(result):
        parts = result if isinstance(result, tuple) else (result,)
        return [
            np.asarray(column).tobytes()
            for part in parts
            for column in (vars(part).values() if hasattr(part, "__dict__") else (part,))
        ]

    budget = sorting.CODE_BITS
    cells = []
    for order, (build, bounds) in builds.items():
        seconds, outputs = {}, {}
        for side, bits in (("codes", budget), ("lexsort", -1)):
            sorting.CODE_BITS = bits
            try:
                seconds[side], outputs[side] = _best_of(repeats, lambda _: build())
            finally:
                sorting.CODE_BITS = budget
        bits = sum(sorting.field_widths(bounds))
        cells.append(_cell(
            "CODE_BITS", rung, f"{order} {graph.num_arcs}/{bits} bits",
            "codes" if bits <= budget else "lexsort",
            "codes", "lexsort", seconds["codes"], seconds["lexsort"],
            columns(outputs["codes"]) == columns(outputs["lexsort"]),
        ))
    return cells


def _mixed_batch(graph, fraction, rng):
    """Deletions of existing edges and insertions of non-edges, half each."""
    size = max(2, round(graph.num_edges * fraction))
    n = graph.num_vertices
    edge_u, edge_v = graph.edge_list()
    dropped = rng.choice(graph.num_edges, size=size // 2, replace=False)
    existing = set((edge_u * n + edge_v).tolist())
    insertions = []
    while len(insertions) < size - size // 2:
        u, v = sorted(rng.integers(0, n, size=2).tolist())
        if u != v and u * n + v not in existing:
            existing.add(u * n + v)
            insertions.append((u, v))
    deletions = zip(edge_u[dropped].tolist(), edge_v[dropped].tolist())
    return UpdateBatch.from_edges(insertions, deletions)


def churn_cells(rung, graph, fractions, repeats):
    """Per batch: merge vs resort, forced through ``ORDER_REBUILD_CHURN``."""
    index = ScanIndex.build(graph)
    rng = np.random.default_rng(1)
    crossover = patch_module.ORDER_REBUILD_CHURN
    churns = []

    def patched(batch, churn):
        patch_module.ORDER_REBUILD_CHURN = churn
        try:
            return _best_of(
                repeats,
                lambda clone: (clone.apply_updates(batch), clone),
                lambda: IndexArtifact.from_index(index).to_index(),
            )
        finally:
            patch_module.ORDER_REBUILD_CHURN = crossover

    for fraction in fractions:
        batch = _mixed_batch(graph, fraction, rng)
        clone = IndexArtifact.from_index(index).to_index()
        report = clone.apply_updates(batch)
        merge_seconds, (_, merged) = patched(batch, float("inf"))
        resort_seconds, (_, resorted) = patched(batch, -1.0)
        merged = IndexArtifact.from_index(merged).columns
        resorted = IndexArtifact.from_index(resorted).columns
        changed = 2 * report.affected_edges / graph.num_arcs
        churns.append(_cell(
            "ORDER_REBUILD_CHURN", rung, f"{fraction:.1%} ({changed:.1%} arcs)",
            report.order_strategy,
            "merge", "resort", merge_seconds, resort_seconds,
            merged.keys() == resorted.keys()
            and all(np.array_equal(merged[k], resorted[k]) for k in merged),
        ))
    return churns


def run(flavour) -> dict:
    """Measure every cell of one run flavour; print the ledger as one table."""
    sort_rungs, churn_rungs, fractions, repeats = flavour
    cells = []
    for rung, load in sort_rungs:
        cells += sort_cells(rung, load(), repeats)
    for rung, load in churn_rungs:
        cells += churn_cells(rung, load(), fractions, repeats)
    print(format_table(
        ["pair", "rung", "size", "auto", "A", "A_ms", "B", "B_ms", "A/B", "identical"],
        [[c["pair"], c["rung"], c["size"], c["auto"], c["a"], f"{c['a_seconds'] * 1e3:.2f}",
          c["b"], f"{c['b_seconds'] * 1e3:.2f}", f"{c['ratio']:.2f}",
          "yes" if c["identical"] else "NO"] for c in cells],
    ))
    return {"benchmark": "strategies", "environment": capture_environment(),
            "graphs": cells}


def test_strategies_smoke():
    """Smoke run: both sides of every cell agree, and auto picks a side."""
    for cell in run(SMOKE)["graphs"]:
        assert cell["identical"], cell["name"]
        assert cell["auto"] in (cell["a"], cell["b"]), cell["name"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="CI-sized rungs, one timing run per side")
    parser.add_argument("--output", type=Path, default=None,
                        help="also write the ledger as JSON to this path")
    args = parser.parse_args(argv)
    results = run(SMOKE if args.smoke else FULL)
    if args.output is not None:
        args.output.write_text(json.dumps(results, indent=2) + "\n")
        print(f"wrote {args.output}")
    differing = [cell["name"] for cell in results["graphs"] if not cell["identical"]]
    for name in differing:
        print(f"ERROR: the two sides of {name} gave different output")
    return 1 if differing else 0


if __name__ == "__main__":
    raise SystemExit(main())
