"""Strategy ledger: one head-to-head cell per strategy pair the code picks between.

Not a figure of the paper, and not a pipeline timing (``perfbench/`` times
build, open, sweep, query, serving and updates end to end).  Where the
program chooses between two interchangeable strategies by a measured
crossover, this runner times both sides on the same input, records what
``"auto"`` picks there, and checks that both sides give identical output:

``radix_eligible``
    The ``NO`` and ``CO`` permutations of :func:`~repro.parallel.sorting.
    packed_argsort`, stable argsort (A) vs the radix digit chain (B), on the
    packed pre-sort codes captured from a real serial build.
``resolve_probe``
    :func:`~repro.similarity.batch.edge_numerators_for_subset`, global
    composite-key search (A) vs bounded per-segment search (B), on 1% and on
    all edges, with the graph's arc search keys already built and without;
    and on what an update sends it, the inserted edges of each churn batch
    on the freshly patched graph, whose keys are not built yet.
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
import repro.similarity.batch as batch_module
from repro import ScanIndex
from repro.bench import capture_environment, format_table
from repro.dynamic import UpdateBatch
from repro.graphs import from_edge_list, planted_partition
from repro.parallel import Scheduler
from repro.similarity.batch import edge_numerators_for_subset
from repro.storage import IndexArtifact


def _hub_graph(clusters, size, p_intra, p_inter, hubs, hub_degree, seed):
    """A planted partition plus ``hubs`` extra vertices of ``hub_degree`` each.

    The hubs give ``NO`` segments thousands of entries deep, where auto
    picks the radix chain for the neighbor-order sort too.
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


#: Per run flavour: (sort + probe rungs, churn rungs, batch fractions,
#: timing repeats).  A rung is (name, graph loader); the full sort rungs
#: are the ``perfbench`` input shape, a hub-tailed graph, and two hub
#: graphs whose ``NO`` and ``CO`` max segments (~700 and ~1,500) straddle
#: ``RADIX_MIN_MAX_SEGMENT``; the churn rungs are one sparse (average
#: degree ~13) and one dense (~70) graph.
FULL = (
    [("perfbench", _partition(60, 200, 0.30, 0.0015)),
     ("hubs", lambda: _hub_graph(30, 120, 0.25, 0.002, 6, 3000, seed=21)),
     ("hub-700", lambda: _hub_graph(7, 100, 0.50, 0.002, 10, 690, seed=31)),
     ("hub-1500", lambda: _hub_graph(15, 100, 0.50, 0.002, 10, 1490, seed=33))],
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
    """Argsort vs radix on the ``NO`` and ``CO`` codes of one serial build."""
    captured = []
    original = sorting.packed_argsort

    def capture(packed, *, universe, max_segment, strategy="auto"):
        captured.append((packed, universe, max_segment))
        return original(packed, universe=universe, max_segment=max_segment,
                        strategy=strategy)

    sorting.packed_argsort = capture
    try:
        ScanIndex.build(graph)
    finally:
        sorting.packed_argsort = original
    cells = []
    for order, (packed, universe, max_segment) in zip(("NO", "CO"), captured):
        seconds, perms = {}, {}
        for strategy in ("argsort", "radix"):
            seconds[strategy], perms[strategy] = _best_of(repeats, lambda _: original(
                packed, universe=universe, max_segment=max_segment, strategy=strategy
            ))
        auto = "radix" if sorting.radix_eligible(packed.size, universe, max_segment) else "argsort"
        cells.append(_cell(
            "radix_eligible", rung, f"{order} {packed.size}/seg {max_segment}", auto,
            "argsort", "radix", seconds["argsort"], seconds["radix"],
            np.array_equal(perms["argsort"], perms["radix"]),
        ))
    return cells


def _auto_probe(graph, subset):
    """The probe ``"auto"`` resolves to for ``subset`` in the graph's state."""
    picked = []
    original = batch_module.resolve_probe

    def capture(*args, **kwargs):
        picked.append(original(*args, **kwargs))
        return picked[-1]

    batch_module.resolve_probe = capture
    try:
        edge_numerators_for_subset(graph, subset, Scheduler())
    finally:
        batch_module.resolve_probe = original
    return picked[0]


def probe_cell(rung, size, graph, subset, keys_built, repeats):
    """Global vs bounded probes of one subset, with or without built arc keys."""
    def setup():
        if keys_built:
            graph.arc_search_keys()
        else:
            graph._arc_search_keys = None  # drop the memoised keys

    setup()
    auto = _auto_probe(graph, subset)
    seconds, numerators = {}, {}
    for probe in ("global", "bounded"):
        seconds[probe], numerators[probe] = _best_of(
            repeats,
            lambda _: edge_numerators_for_subset(graph, subset, Scheduler(), probe=probe),
            setup,
        )
    return _cell(
        "resolve_probe", rung, f"{size}, {'keys built' if keys_built else 'no keys'}",
        auto, "global", "bounded", seconds["global"], seconds["bounded"],
        np.array_equal(numerators["global"], numerators["bounded"]),
    )


def probe_cells(rung, graph, repeats):
    """Random 1% and all-edge subsets, with and without built arc keys."""
    rng = np.random.default_rng(0)
    cells = []
    for fraction in (0.01, 1.0):
        count = max(int(graph.num_edges * fraction), 1)
        subset = np.sort(rng.choice(graph.num_edges, size=count, replace=False))
        for keys_built in (True, False):
            cells.append(probe_cell(
                rung, f"{fraction:.0%} of edges", graph, subset, keys_built, repeats
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
    """Per batch: the update path's own subset probe, then merge vs resort.

    The probe cell runs on the freshly patched graph, whose arc keys are not
    built, over the subset an unweighted update recomputes (its inserted
    edges).  The order-repair cell forces merge and resort through
    ``ORDER_REBUILD_CHURN`` on the same batch.
    """
    index = ScanIndex.build(graph)
    rng = np.random.default_rng(1)
    crossover = patch_module.ORDER_REBUILD_CHURN
    probes, churns = [], []

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
        positions, _ = clone.graph.locate_neighbors(batch.insert_u, batch.insert_v)
        probes.append(probe_cell(
            rung, f"{fraction:.1%} batch inserts, patched", clone.graph,
            np.sort(clone.graph.arc_edge_ids[positions]), False, repeats,
        ))
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
    return probes, churns


def run(flavour) -> dict:
    """Measure every cell of one run flavour; print the ledger as one table."""
    sort_rungs, churn_rungs, fractions, repeats = flavour
    sorts, probes, churns = [], [], []
    for position, (rung, load) in enumerate(sort_rungs):
        graph = load()
        sorts += sort_cells(rung, graph, repeats)
        if position == 0:
            probes += probe_cells(rung, graph, repeats)
    for rung, load in churn_rungs:
        update_probes, rung_churns = churn_cells(rung, load(), fractions, repeats)
        probes += update_probes
        churns += rung_churns
    cells = sorts + probes + churns
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
