"""Fully vectorised batch similarity engine (the ``"batch"`` backend).

The reference ``"merge"`` backend of :mod:`repro.similarity.exact` walks the
degree-oriented CSR one arc at a time and calls ``np.intersect1d`` per arc,
which caps construction at Python-interpreter speed.  This module executes
the *same* algorithm array-at-once:

1. expand the oriented arcs into flat ``(arc, candidate)`` pairs, where the
   candidates of arc ``u -> v`` are the out-neighbors of ``v`` (memory use is
   bounded by processing the pairs in chunks of ``chunk_pairs``);
2. test every candidate ``x`` for membership in ``out(u)`` by searching the
   memoised composite keys ``source * n + target`` of the whole oriented
   CSR with a single C-speed ``np.searchsorted`` (``O(log 2m)`` per probe);
3. scatter the three per-triangle contributions onto the canonical edge ids
   (``np.add.at`` semantics, executed via ``np.bincount`` which is
   dramatically faster for large scatters).

Because the batch engine performs exactly the intersection work of the merge
engine, it charges *identical* work/span to the scheduler: per oriented arc
``u -> v`` with a non-empty ``out(v)``, a merge cost of
``outdeg(u) + outdeg(v)``, with the span of the largest single merge plus the
fork-tree depth on top.  Tests assert this equality, which pins the cost
model while the execution strategy differs.

:func:`edge_numerators_for_subset` applies the same treatment to an arbitrary
subset of edges (probing the smaller endpoint's neighborhood against the
larger one's with one search of the graph's memoised whole-CSR composite
keys), which is what the LSH low-degree fallback in
:mod:`repro.lsh.approximate` batches its exact similarities with; index
updates use it for weighted graphs and for artifacts without stored
numerators.
"""

from __future__ import annotations

import numpy as np

from ..graphs.graph import Graph
from ..parallel.metrics import ceil_log2
from ..parallel.primitives import segmented_ranges
from ..parallel.scheduler import Scheduler

#: Default bound on the number of ``(arc, candidate)`` pairs materialised at
#: once; 2**22 pairs is ~100 MB of transient arrays, far below graph size for
#: the scales this engine targets while keeping each chunk BLAS-friendly.
DEFAULT_CHUNK_PAIRS = 1 << 22

def accumulate_oriented_contributions(
    out: np.ndarray,
    oriented: tuple,
    sources: np.ndarray,
    comp: np.ndarray,
    num_vertices: int,
    arc_range_start: int,
    arc_range_end: int,
    *,
    chunk_pairs: int,
) -> None:
    """Add triangle contributions of oriented arcs ``[start, end)`` onto ``out``.

    The memory-bounded chunk loop of the batch engine, restricted to a
    contiguous range of oriented arcs: both the serial all-arc pass and
    every shard of the multicore execution layer
    (:mod:`repro.parallel.execute`) run exactly this function, which is what
    keeps the process-parallel similarity pass bit-identical to the serial
    one on unweighted graphs (all contributions are integers, so the shard
    merge order cannot matter).  ``comp`` holds the sentinel-terminated
    composite keys of the whole orientation.
    """
    indptr, targets, edge_ids, weights = oriented
    num_edges = int(out.shape[0])
    num_oriented = int(targets.shape[0])
    arc_range_start = int(arc_range_start)
    arc_range_end = int(arc_range_end)
    # Pair counts only over this range: a shard of the multicore layer must
    # not pay an O(all arcs) pass before its own work starts.  The chunking
    # below indexes through ``range_counts``/``range_cumulative`` with
    # range-relative positions; everything touching the CSR arrays stays
    # absolute.
    out_degrees = np.diff(indptr)
    range_counts = out_degrees[targets[arc_range_start:arc_range_end]]
    range_cumulative = np.cumsum(range_counts)
    arc_start = arc_range_start
    while arc_start < arc_range_end:
        relative_start = arc_start - arc_range_start
        base = int(range_cumulative[relative_start - 1]) if relative_start else 0
        arc_end = arc_range_start + int(
            np.searchsorted(range_cumulative, base + chunk_pairs, side="right")
        )
        arc_end = min(max(arc_end, arc_start + 1), arc_range_end)
        counts = range_counts[relative_start:arc_end - arc_range_start]
        chunk_total = int(counts.sum())
        if chunk_total == 0:
            arc_start = arc_end
            continue
        # (arc, candidate) pair expansion for this chunk: the candidates of
        # arc u -> v are the positions of v's out-segment.
        pair_arc = np.repeat(np.arange(arc_start, arc_end, dtype=np.int64), counts)
        candidate_pos = segmented_ranges(indptr[targets[arc_start:arc_end]], counts)
        keys = (
            np.repeat(sources[arc_start:arc_end] * np.int64(num_vertices), counts)
            + targets[candidate_pos]
        )
        locations = np.searchsorted(comp[:num_oriented], keys)
        # A miss past the end lands on the sentinel and compares unequal.
        found = comp[locations] == keys
        if found.any():
            arc_uv = pair_arc[found]       # oriented position of edge (u, v)
            arc_ux = locations[found]      # position of x in out(u)
            arc_vx = candidate_pos[found]  # position of x in out(v)
            w_uv = weights[arc_uv]
            w_ux = weights[arc_ux]
            w_vx = weights[arc_vx]
            # Triangle {u, v, x}: each edge gains the product of the other two.
            out += np.bincount(
                edge_ids[arc_uv], weights=w_ux * w_vx, minlength=num_edges
            )
            out += np.bincount(
                edge_ids[arc_ux], weights=w_uv * w_vx, minlength=num_edges
            )
            out += np.bincount(
                edge_ids[arc_vx], weights=w_uv * w_ux, minlength=num_edges
            )
        arc_start = arc_end


def batch_numerators(
    graph: Graph,
    scheduler: Scheduler,
    *,
    chunk_pairs: int = DEFAULT_CHUNK_PAIRS,
    executor=None,
) -> np.ndarray:
    """Closed-neighborhood dot product of every edge, with no per-arc loop.

    Returns the same numerator array as ``_numerators_merge`` (up to float
    summation order) and charges the same work/span.  ``executor`` -- a
    :class:`~repro.parallel.execute.ParallelExecutor` -- shards the pass
    across worker processes for unweighted graphs (bit-identical: integer
    contributions merge exactly); weighted graphs ignore it and stay serial
    so float summation order is preserved.
    """
    if chunk_pairs < 1:
        raise ValueError(f"chunk_pairs must be positive, got {chunk_pairs}")
    oriented = graph.degree_oriented_csr()
    indptr, targets, edge_ids, weights = oriented
    num_edges = graph.num_edges
    numerators = np.zeros(num_edges, dtype=np.float64)
    # Base term: x = u and x = v both belong to the closed intersection and
    # contribute w(u,v) * 1 each.
    if graph.edge_weights is None:
        numerators += 2.0
    else:
        numerators += 2.0 * graph.edge_weights

    num_oriented = int(targets.shape[0])
    if num_oriented == 0:
        scheduler.charge(0.0, ceil_log2(max(num_edges, 1)) + 1.0)
        return numerators

    out_degrees = np.diff(indptr)
    sources = graph.oriented_arc_sources()
    n = graph.num_vertices

    # Cost model: identical to the merge backend.  Arcs whose target has no
    # out-neighbors are skipped there before any cost accrues.  The maximum
    # per-arc span is ceil_log2 of the maximum cost (ceil_log2 is monotone).
    pair_counts = out_degrees[targets]
    active = pair_counts > 0
    if active.any():
        costs = out_degrees[sources[active]] + pair_counts[active]
        total_work = float(costs.sum())
        max_span = ceil_log2(int(costs.max())) + 1.0
    else:
        total_work = 0.0
        max_span = 0.0

    contributions = None
    if executor is not None:
        contributions = executor.sharded_numerators(graph, chunk_pairs=chunk_pairs)
    if contributions is not None:
        numerators += contributions
    else:
        # Strictly increasing composite key of every oriented arc (memoised
        # on the graph, with a trailing sentinel for bounds-free misses).
        accumulate_oriented_contributions(
            numerators, oriented, sources, graph.oriented_search_keys(), n, 0,
            num_oriented, chunk_pairs=chunk_pairs,
        )

    scheduler.charge(total_work, max_span + ceil_log2(max(num_edges, 1)) + 1.0)
    return numerators


def edge_numerators_for_subset(
    graph: Graph,
    edge_ids: np.ndarray,
    scheduler: Scheduler,
    *,
    chunk_pairs: int = DEFAULT_CHUNK_PAIRS,
) -> np.ndarray:
    """Closed-neighborhood dot products of the selected edges only.

    For each requested edge the smaller-degree endpoint's neighborhood probes
    the larger one's, exactly the strategy of Algorithm 1 restricted to a
    subset, but run as chunked array passes instead of per-edge Python loops.
    Charges ``deg(smaller endpoint) + 1`` work per edge with the span of the
    largest single probe, matching the scalar fallback it replaces.
    """
    edge_ids = np.asarray(edge_ids, dtype=np.int64)
    num_selected = int(edge_ids.shape[0])
    if num_selected == 0:
        return np.zeros(0, dtype=np.float64)
    edge_u_all, edge_v_all = graph.edge_list()
    degrees = graph.degrees
    u = edge_u_all[edge_ids]
    v = edge_v_all[edge_ids]
    swap = degrees[u] > degrees[v]
    u, v = np.where(swap, v, u), np.where(swap, u, v)

    n = graph.num_vertices
    num_arcs = graph.num_arcs
    comp = graph.arc_search_keys()
    counts = degrees[u]
    costs = counts + 1
    total_work = float(costs.sum())
    max_span = ceil_log2(int(costs.max())) + 1.0

    numerators = np.zeros(num_selected, dtype=np.float64)
    cumulative = np.cumsum(counts)
    edge_start = 0
    while edge_start < num_selected:
        base = int(cumulative[edge_start - 1]) if edge_start else 0
        edge_end = int(np.searchsorted(cumulative, base + chunk_pairs, side="right"))
        edge_end = min(max(edge_end, edge_start + 1), num_selected)
        chunk_counts = counts[edge_start:edge_end]
        chunk_total = int(chunk_counts.sum())
        if chunk_total == 0:
            edge_start = edge_end
            continue
        pair_edge = np.repeat(np.arange(edge_start, edge_end, dtype=np.int64), chunk_counts)
        probe_pos = segmented_ranges(graph.indptr[u[edge_start:edge_end]], chunk_counts)
        candidates = graph.indices[probe_pos]
        keys = v[pair_edge] * np.int64(n) + candidates
        locations = np.searchsorted(comp[:num_arcs], keys)
        # A miss past the end lands on the sentinel and compares unequal.
        found = comp[locations] == keys
        if found.any():
            if graph.arc_weights is None:
                contributions = np.ones(int(np.count_nonzero(found)), dtype=np.float64)
            else:
                contributions = (
                    graph.arc_weights[probe_pos[found]]
                    * graph.arc_weights[locations[found]]
                )
            numerators += np.bincount(
                pair_edge[found], weights=contributions, minlength=num_selected
            )
        edge_start = edge_end

    if graph.edge_weights is None:
        numerators += 2.0
    else:
        numerators += 2.0 * graph.edge_weights[edge_ids]
    scheduler.charge(total_work, max_span + ceil_log2(max(num_selected, 1)) + 1.0)
    return numerators
