"""``explore``: the paper's analyst session, closed loop in one thread.

One op builds the index from the edge-list file, saves it, opens it with a
verified load to a first answer (``OPENS_PER_OP`` times over the op),
sweeps the 45-setting grid through ``query_many``, then edits the graph
with one 40-op update batch and saves again.  After the window the
analyst drills into every setting of the grid with a per-pair
``ScanIndex.query``: the oracle the sweep must equal, timed as the
interactive query latency.  No server runs here, so a change to the
serving tier should move nothing on this workload.
"""

from __future__ import annotations

import time
from contextlib import nullcontext

import numpy as np

import inputs
import pipeline
from measure import add_query_buckets

#: Untimed warm ops (build → open → sweep) before the window; ``setup_s``
#: is their median.
SETUP_OPS = 2
#: Verified opens per timed op.  An open is short (~0.25 s), so one burst
#: of a shared host moves a few samples by half; more of them keep the
#: median of a run steady.
OPENS_PER_OP = 6


def _same_clustering(a, b) -> bool:
    return np.array_equal(a.labels, b.labels) and np.array_equal(a.core_mask, b.core_mask)


class Explore:
    threads = 1

    def __init__(self, ctx) -> None:
        self.ctx = ctx
        self.grid = inputs.explore_grid()
        self.artifact = ctx.workdir / "explore.scanidx"
        self.first_columns = None
        self.last_index = None
        self.batch = None

    def op(self, *, warm: bool = False, layers=None) -> float:
        ctx, checks = self.ctx, self.ctx.checks
        record = not warm and layers is None
        started = time.perf_counter()
        index, build_s = pipeline.build(ctx.edge_path, self.artifact, layers)
        columns = pipeline.columns_of(self.artifact)
        if self.first_columns is None:
            self.first_columns = columns
        else:
            checks.attempt()
            bad = pipeline.column_mismatches(columns, self.first_columns)
            checks.expect(not bad, f"explore: artifact differs from the first op's in {bad}")
        loaded = self.open(layers, record)
        clusterings, sweep_s = pipeline.sweep(loaded, self.grid)
        checks.attempt()
        checks.expect(f"clusters={clusterings[0].num_clusters} " in self.first_line,
                      f"explore: first answer {self.first_line!r} disagrees with the sweep")
        if warm:
            return time.perf_counter() - started
        # The other opens are spread through the op, so one slow moment of
        # a shared machine does not hit all of an op's open_s samples.
        self.open(layers, record)
        if self.batch is None:
            edge_u, edge_v = index.graph.edge_list()
            self.batch = inputs.update_batch(
                np.random.default_rng([ctx.seed, 3]), index.graph.num_vertices, edge_u, edge_v
            )
        _, update_s = pipeline.update(index, *self.batch, self.artifact, layers)
        for _ in range(OPENS_PER_OP - 2):
            self.open(layers, record)
        self.last_index = index
        if record:
            ctx.samples.add("build_s", build_s)
            ctx.samples.add("sweep_s", sweep_s)
            ctx.samples.add("update_ms", update_s * 1e3)
        return time.perf_counter() - started

    def open(self, layers, record: bool):
        """One verified open to a first answer; returns the loaded index."""
        loaded, self.first_line, open_s = pipeline.open_session(
            self.artifact, self.grid[0], layers
        )
        if record:
            self.ctx.samples.add("open_s", open_s)
        return loaded

    def setup(self) -> None:
        for _ in range(SETUP_OPS):
            self.ctx.samples.add("setup_s", self.op(warm=True))

    def window(self, seconds: float, layers=None) -> None:
        tag = "op_s" if layers is None else "traced.op_s"
        deadline = time.perf_counter() + seconds
        with layers.installed() if layers is not None else nullcontext():
            while time.perf_counter() < deadline:
                self.ctx.samples.add(tag, self.op(layers=layers))
                if layers is not None:
                    layers.standalone_calls(self.artifact, self.last_index.graph.num_arcs)

    def oracle(self) -> None:
        """Per-pair drill-down over the grid; a ``jobs=1`` build; patched index vs rebuild."""
        from repro import ScanIndex
        from repro.graphs.io import read_edge_list

        ctx, checks = self.ctx, self.ctx.checks
        loaded = ScanIndex.load(self.artifact)
        clusterings, _ = pipeline.sweep(loaded, self.grid)
        query_s = []
        for (mu, epsilon), swept in zip(self.grid, clusterings):
            started = time.perf_counter()
            single = loaded.query(mu, epsilon, deterministic_borders=True)
            query_s.append(time.perf_counter() - started)
            checks.attempt()
            checks.expect(_same_clustering(single, swept),
                          f"explore: sweep differs from query({mu}, {epsilon})")
        add_query_buckets(ctx.samples, [(query_s, sum(query_s))])
        serial = ScanIndex.build(read_edge_list(ctx.edge_path), jobs=1)
        checks.attempt()
        bad = pipeline.column_mismatches(self.first_columns, pipeline.index_columns(serial))
        checks.expect(not bad, f"explore: jobs=2 build differs from jobs=1 in {bad}")
        rebuilt = ScanIndex.build(self.last_index.graph, jobs=pipeline.BUILD_JOBS)
        checks.attempt()
        bad = pipeline.column_mismatches(
            pipeline.columns_of(self.artifact), pipeline.index_columns(rebuilt)
        )
        checks.expect(not bad, f"explore: patched artifact differs from a rebuild in {bad}")

    def layer_replays(self, layers) -> None:
        """Sharing ratio and query layers over the grid, then session misses and hits."""
        from repro import ScanIndex

        index = ScanIndex.load(self.artifact)
        _, sweep_s = pipeline.sweep(index, self.grid)
        layers.sharing_ratio(index, self.grid, sweep_s)
        layers.session_replay(index, self.grid)

    def close(self) -> None:
        """Nothing outlives an op here."""
