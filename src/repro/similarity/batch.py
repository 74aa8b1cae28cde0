"""Fully vectorised batch similarity engine (the ``"batch"`` backend).

The reference ``"merge"`` backend of :mod:`repro.similarity.exact` walks the
degree-oriented CSR one arc at a time and calls ``np.intersect1d`` per arc,
which caps construction at Python-interpreter speed.  This module executes
the *same* algorithm array-at-once:

1. expand the oriented arcs into flat ``(arc, candidate)`` pairs, where the
   candidates of arc ``u -> v`` are the out-neighbors of ``v`` (memory use is
   bounded by processing the pairs in output chunks of ``chunk_pairs``,
   each probed in cache-sized blocks of :data:`PROBE_BLOCK_PAIRS`);
2. test every candidate ``x`` for membership in ``out(u)`` by searching the
   memoised composite keys ``source * n + target`` of the whole oriented
   CSR with a single C-speed ``np.searchsorted`` (``O(log 2m)`` per probe);
3. compact each block's hits once (one ``np.flatnonzero``), concatenate a
   chunk's hits in block order, and scatter the three per-triangle
   contributions onto the canonical edge ids (``np.add.at`` semantics,
   executed via ``np.bincount``, which is dramatically faster for large
   scatters).  An unweighted graph's orientation carries no weight
   column: each triangle adds 1 to each of its three edges, so one integer
   ``np.bincount`` over the three concatenated edge-id runs counts a whole
   chunk.  A weighted graph keeps its three float ``np.bincount`` passes of
   weight products, in that order.

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

#: Default bound on the number of ``(arc, candidate)`` pairs per output
#: chunk: one ``num_edges``-long output pass (one ``np.bincount`` plus one
#: add on an unweighted graph, three on a weighted one) per chunk.  A
#: weighted graph sums its float products chunk by chunk, so this bound
#: fixes the low bits of every weighted numerator (at 2**20, 4,002 of
#: 200,000 weighted scores moved by one ulp); it stays 2**22 so stored
#: artifacts stay identical.  Before the probe blocks below, the chunk was
#: also the probe unit: serial unweighted kernel, median of 15 interleaved
#: rounds on the 464k-edge explore graph (11.9M probes), 2-vCPU VM: 2**18
#: 795 ms, 2**19 786 ms, 2**20 769 ms, 2**21 825 ms, 2**22 958 ms.  On a
#: sparse graph (n = 1M, m = 3M, 5.9M probes; median of 5) the output
#: passes dominate small chunks: 2**18 857 ms, 2**19 760 ms, 2**20 658 ms,
#: 2**21 643 ms, 2**22 660 ms.
DEFAULT_CHUNK_PAIRS = 1 << 22

#: Pairs probed at once inside one output chunk, so the probe arrays of a
#: block (8 MB each at 2**20) stay near the cache while the chunk keeps its
#: output passes.  A chunk's hits are concatenated in block order before
#: its output passes, so every weighted sum is grouped exactly as a
#: whole-chunk probe groups it and numerators do not depend on this bound.
PROBE_BLOCK_PAIRS = 1 << 20


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
    composite keys of the whole orientation.  ``oriented`` is a
    :class:`~repro.graphs.graph.DegreeOrientedCsr` (or its four columns);
    ``weights`` ``None`` means unit weights, counted as integers.
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

    def block_end(start: int, stop: int, budget: int) -> int:
        # Last arc (exclusive, at most ``stop``, at least one past ``start``)
        # whose pairs since ``start`` fit ``budget``.
        relative = start - arc_range_start
        base = int(range_cumulative[relative - 1]) if relative else 0
        end = arc_range_start + int(
            np.searchsorted(range_cumulative, base + budget, side="right")
        )
        return min(max(end, start + 1), stop)

    arc_start = arc_range_start
    while arc_start < arc_range_end:
        arc_end = block_end(arc_start, arc_range_end, chunk_pairs)
        # Probe the chunk in cache-sized blocks; their hits, concatenated in
        # block order, are exactly the chunk's hits in pair order, so the
        # output passes below group every sum as one whole-chunk probe would.
        hit_blocks = []
        block_start = arc_start
        while block_start < arc_end:
            block_stop = block_end(block_start, arc_end, PROBE_BLOCK_PAIRS)
            hit_blocks.append(_probe_block(
                indptr, targets, sources, comp, num_vertices, num_oriented,
                block_start, block_stop,
                range_counts[block_start - arc_range_start:block_stop - arc_range_start],
            ))
            block_start = block_stop
        arc_uv, arc_ux, arc_vx = (
            np.concatenate(column) for column in zip(*hit_blocks)
        )
        if arc_uv.shape[0]:
            if weights is None:
                # Unit weights: every triangle adds 1 to each of its three
                # edges, so one integer count covers all three.
                out += np.bincount(
                    edge_ids[np.concatenate((arc_uv, arc_ux, arc_vx))],
                    minlength=num_edges,
                )
            else:
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


def _probe_block(
    indptr, targets, sources, comp, num_vertices, num_oriented,
    arc_start, arc_end, counts,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Triangle hits of oriented arcs ``[arc_start, arc_end)``.

    Returns the oriented positions ``(uv, ux, vx)`` of every triangle's three
    edges, in (arc, candidate) pair order.
    """
    # (arc, candidate) pair expansion: the candidates of arc u -> v are the
    # positions of v's out-segment.
    pair_arc = np.repeat(np.arange(arc_start, arc_end, dtype=np.int64), counts)
    candidate_pos = segmented_ranges(indptr[targets[arc_start:arc_end]], counts)
    keys = (
        np.repeat(sources[arc_start:arc_end] * np.int64(num_vertices), counts)
        + targets[candidate_pos]
    )
    locations = np.searchsorted(comp[:num_oriented], keys)
    # A miss past the end lands on the sentinel and compares unequal.
    # One compaction: the three position arrays are gathered at ``hits``.
    hits = np.flatnonzero(comp[locations] == keys)
    return pair_arc[hits], locations[hits], candidate_pos[hits]


def batch_numerators(
    graph: Graph,
    scheduler: Scheduler,
    *,
    chunk_pairs: int = DEFAULT_CHUNK_PAIRS,
    executor=None,
) -> np.ndarray:
    """Closed-neighborhood dot product of every edge, with no per-arc loop.

    Returns the same numerator array as ``_numerators_merge`` (bit for bit
    on unweighted graphs, whose numerators are integer counts; up to float
    summation order on weighted ones) and charges the same work/span.  ``executor`` -- a
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
    An unweighted graph counts its hits with an integer ``np.bincount``; a
    weighted one bins the products of the two arc weights.
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
        hits = np.flatnonzero(comp[locations] == keys)
        if hits.shape[0]:
            contributions = None  # unit weights: an integer count
            if graph.arc_weights is not None:
                contributions = (
                    graph.arc_weights[probe_pos[hits]]
                    * graph.arc_weights[locations[hits]]
                )
            numerators += np.bincount(
                pair_edge[hits], weights=contributions, minlength=num_selected
            )
        edge_start = edge_end

    if graph.edge_weights is None:
        numerators += 2.0
    else:
        numerators += 2.0 * graph.edge_weights[edge_ids]
    scheduler.charge(total_work, max_span + ceil_log2(max(num_selected, 1)) + 1.0)
    return numerators
