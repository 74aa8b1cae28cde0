"""The index patcher: apply an :class:`UpdateBatch` with localized repair.

A full rebuild after a batch of edge updates pays the whole construction
again: ``O(m^{3/2})`` triangle work for the similarities plus global
segmented sorts for both orders.  This module repairs a built
:class:`~repro.core.index.ScanIndex` instead, producing output
**bit-identical** to a from-scratch rebuild on the mutated graph (for
exactly built indexes of unweighted graphs; weighted cosine scores agree up
to float summation order, exactly the tolerance the similarity backends
already grant each other).

Every stage works on *located positions*: the ``O(b)`` ops of a batch and
the ``O(Σ_{t∈T} deg t)`` arcs around the touched vertices ``T`` (the
endpoints of some op) are found by binary search, and each stored column is
then rebuilt by one delete-and-insert pass (:func:`_splice`).  Those column
splices (memcpy-scale), the one remap of ``arc_edge_ids``, an O(n) pass
over the row maxima when an insert falls past its row's end and, on
weighted graphs, the patched graph's canonical edge list and arc search
keys the subset numerator engine probes are the only whole-graph passes
left.  One whole-column sort remains: the merge path rebuilds the ε
boundary table with one ``sorted_unique`` over the m patched scores (about
5 ms of a ~65 ms apply on a 464k-edge graph; splicing the table instead
needs a count per boundary value, which neither the index nor the artifact
keeps).  Otherwise no step builds a mask over every arc, a prefix sum over
every entry or a sort key over a whole column, and an unweighted batch
derives neither graph's edge list.

1. **Graph splice** (:func:`_splice_graph`): the two arcs of every op are
   located in the CSR rows (``Graph.locate_neighbors``) and the arc columns
   are spliced at those positions.  Canonical edge ids number the forward
   arcs (target > source) in CSR order, so deleted ids and inserted ranks
   are both read off ``arc_edge_ids`` at located positions
   (:func:`_insert_ranks`); the id shift is piecewise constant between
   those ``O(b)`` breakpoints and is applied to ``arc_edge_ids`` in the one
   remap pass.
2. **Similarity delta** (:func:`apply_updates`): an edge's score changes
   only if an endpoint is touched, so exactly the edges in ``T``'s adjacency
   ranges are re-finalised, their endpoints read off those ranges' arcs;
   with stored numerators only the triangle-affected ones pay intersection
   work.  On unweighted graphs that work is the one listing of the
   triangles through the op edges: integer triangle-count deltas for the
   surviving edges, ``2 +`` the triangle count for the inserted ones.  Weighted graphs recompute the affected subset fresh
   through the vectorised subset engine (:func:`~repro.similarity.batch.
   edge_numerators_for_subset`) the LSH fallback batches with.  The
   edge-indexed columns are spliced like the arc columns.
3. **Neighbor-order patch** (:func:`_patch_neighbor_order`): the whole
   ``NO`` segment of every touched vertex is removed and re-sorted from its
   new arcs; for every arc ``(x, t)`` with ``x ∉ T`` and ``t ∈ T`` -- read
   off ``T``'s adjacency -- the one entry of ``t`` in ``NO[x]`` is located
   by a lexicographic search keyed by its old score and ``t``, and its
   re-scored replacement by the same search keyed by the new score.  One
   splice of each ``NO`` column applies both.
4. **Core-order patch** (:func:`_patch_core_order`): a threshold
   ``NO[x][k]`` of an untouched vertex can only move for ``k`` between
   ``x``'s lowest and highest changed position, so those ``(x, k + 2)``
   entries whose threshold bits changed, plus every entry of a touched
   vertex (its degree changed), are located in their old ``CO[μ]`` segments
   and re-inserted at their searched positions -- again one splice per
   column.

Bit-identity rests on the orders being *value-determined*: the construction
sorts are stable sorts by exact similarity rank keys, so ``NO[v]`` is
exactly "neighbors by (similarity desc, id asc)" and ``CO[μ]`` exactly
"candidates by (threshold desc, degree desc, id asc)" -- deterministic
total orders the searches reproduce by comparing the probed scores
directly, as the construction's rank keys do.  Entries that do not move
keep their relative order through the splice.  The randomized stream
tests in ``tests/property/`` enforce equality of every stored column
against a rebuild after every batch, under both order-repair strategies.

Approximate (LSH-built) indexes are rejected: their scores come from global
random sketches, so no localized recompute can match a re-sketch.
"""

from __future__ import annotations

import time

import numpy as np

from .. import obs
from ..core.core_order import CoreOrder, build_core_order
from ..core.neighbor_order import NeighborOrder, build_neighbor_order
from ..graphs.graph import ID_DTYPE, Graph
from ..parallel.metrics import ceil_log2
from ..parallel.primitives import (
    segmented_arange,
    segmented_ranges,
    sorted_unique,
)
from ..parallel.scheduler import Scheduler
from ..similarity.batch import edge_numerators_for_subset
from ..similarity.exact import EdgeSimilarities, finalise_numerators
from .updates import UpdateBatch, UpdateReport

__all__ = ["apply_updates"]

#: When the batch's changed arcs exceed this fraction of the graph, the
#: patch re-sorts both orders outright (the same construction code a full
#: build runs, on the patched similarities -- identical output by
#: definition) instead of merging runs: at that churn the changed runs
#: rival the kept runs and the two code sorts beat the merge's
#: search-and-splice passes.  Measured with each strategy forced through
#: this constant (whole ``apply_updates``, median of 5, serial, 2-vCPU
#: VM), merge ÷ resort on three rungs -- sparse (average degree ~13),
#: dense (~70) and the 464k-edge ``perfbench`` graph: 0.46-0.61 at
#: 0.7-0.8% of arcs changed, 0.40-0.71 at 1.4-1.5%, 1.00-1.08 at
#: 2.6-3.1%, 1.00-1.46 at 4.0-4.6% and 1.25-1.97 at 6.4-7.5%.  The
#: break-even sits near 2.5-3% on every rung; before the order builds
#: became one code sort each it sat at 7.5-10%, where this constant was
#: 0.07.  The ``ORDER_REBUILD_CHURN`` cells of
#: ``benchmarks/bench_strategies.py`` keep timing both sides (ledger in
#: ``docs/ARCHITECTURE.md``).
ORDER_REBUILD_CHURN = 0.025


# ----------------------------------------------------------------------
# Located-position primitives shared by every stage
# ----------------------------------------------------------------------
def _insertion_slots(removed: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Output positions of entries inserted before old positions ``points``.

    ``removed`` holds the sorted old positions the same splice deletes and
    ``points`` is non-decreasing; entry ``k`` lands after the kept entries
    before its point and after the ``k`` inserted entries before it.
    """
    return (
        points - np.searchsorted(removed, points)
        + np.arange(points.shape[0], dtype=np.int64)
    )


#: A splice copies the kept entries piece by piece while its removed plus
#: inserted entries (which bound its pieces) number under one per this many
#: column entries; past that, a masked gather/scatter per block is cheaper.
#: A piece copy costs ~1 µs of call overhead and a masked pass ~4 ns per
#: entry, so they break even near one piece per ~250-500 entries (measured
#: on 0.46M- and 0.93M-entry columns).
SPLICE_ENTRIES_PER_PIECE = 400

#: Entries per block of the masked splice and of in-place remaps: the
#: temporaries stay cache-sized instead of column-sized, and a fresh
#: column-sized allocation costs more than the pass that fills it.
SPLICE_BLOCK = 1 << 16


def _splice(
    columns: tuple, removed: np.ndarray, slots: np.ndarray, inserted: tuple
) -> list[np.ndarray]:
    """Delete ``removed`` from each column and place ``inserted`` at ``slots``.

    ``removed`` (sorted old positions) and ``slots`` (sorted new positions)
    cut the kept entries into pieces that are contiguous both before and
    after the splice: a removed entry sits before kept entry
    ``removed[i] - i``, an inserted one before kept entry ``slots[k] - k``.
    Each piece is one slice copy into a fresh array (the inputs may be
    read-only memory maps).  Past :data:`SPLICE_ENTRIES_PER_PIECE`, the
    kept entries move by masked copies of :data:`SPLICE_BLOCK` entries
    instead.  The only column-sized allocation is each output.
    """
    size = int(columns[0].shape[0])
    total = size - int(removed.shape[0]) + int(slots.shape[0])
    removed_gaps = removed - np.arange(removed.shape[0], dtype=np.int64)
    inserted_gaps = slots - np.arange(slots.shape[0], dtype=np.int64)
    if (removed.shape[0] + slots.shape[0] + 1) * SPLICE_ENTRIES_PER_PIECE <= size:
        cuts = sorted_unique(np.concatenate([
            [0, size - removed.shape[0]], removed_gaps, inserted_gaps,
        ]))
        old = cuts[:-1] + np.searchsorted(removed_gaps, cuts[:-1], side="right")
        new = cuts[:-1] + np.searchsorted(inserted_gaps, cuts[:-1], side="right")
        lengths = np.diff(cuts)
        blocks = zip(old.tolist(), (old + lengths).tolist(), new.tolist(),
                     (new + lengths).tolist(), [None] * len(lengths))
    else:
        # Block i covers old entries [a, b); its kept entries fill the free
        # output slots of [c, d), where inserted entries sitting before a
        # kept entry belong to that entry's block.
        bounds = np.append(np.arange(0, size, SPLICE_BLOCK, dtype=np.int64), size)
        removed_at = np.searchsorted(removed, bounds)
        kept = bounds - removed_at
        out_bounds = kept + np.searchsorted(inserted_gaps, kept, side="right")
        slots_at = np.searchsorted(slots, out_bounds)
        blocks = (
            (a, b, c, d, (removed[r0:r1] - a, slots[s0:s1] - c))
            for a, b, c, d, r0, r1, s0, s1 in zip(
                bounds[:-1].tolist(), bounds[1:].tolist(),
                out_bounds[:-1].tolist(), out_bounds[1:].tolist(),
                removed_at[:-1].tolist(), removed_at[1:].tolist(),
                slots_at[:-1].tolist(), slots_at[1:].tolist(),
            )
        )
    spliced = [np.empty(total, dtype=column.dtype) for column in columns]
    for a, b, c, d, local in blocks:
        if local is None:
            for out, column in zip(spliced, columns):
                out[c:d] = column[a:b]
            continue
        keep = np.ones(b - a, dtype=bool)
        keep[local[0]] = False
        free = np.ones(d - c, dtype=bool)
        free[local[1]] = False
        for out, column in zip(spliced, columns):
            out[c:d][free] = column[a:b][keep]
    for out, values in zip(spliced, inserted):
        out[slots] = values
    return spliced


def _remap_in_place(table: np.ndarray, ids: np.ndarray) -> None:
    """``ids[:] = table[ids]`` block by block, with no column-sized temporary."""
    for start in range(0, ids.shape[0], SPLICE_BLOCK):
        block = ids[start:start + SPLICE_BLOCK]
        np.take(table, block, out=block)


def _ordered_lower_bound(
    similarities: np.ndarray,
    tie_at,
    starts: np.ndarray,
    ends: np.ndarray,
    query_similarities: np.ndarray,
    query_ties: np.ndarray,
) -> np.ndarray:
    """Per-query lower bound in a segment sorted by (similarity desc, tie asc).

    Returns the absolute position of the first entry of
    ``[starts[i], ends[i])`` that does not sort before the query.  All
    queries halve their candidate range together, ``O(log max_segment)``
    rounds; each round compares the probed scores as floats and asks
    ``tie_at`` for the tie keys of the probes whose scores are equal, so no
    key is ever derived for a whole column.
    """

    def sorts_before(positions, queries):
        probed = similarities[positions]
        before = probed > query_similarities[queries]
        tied = np.flatnonzero(probed == query_similarities[queries])
        before[tied] = tie_at(positions[tied]) < query_ties[queries[tied]]
        return before

    # The answer stays in [low, low + count]; a probe at low + half either
    # moves low there or keeps it, and count shrinks by half.  Finished
    # queries (half == 0) probe a clamped position and move nowhere.
    low = np.asarray(starts, dtype=np.int64).copy()
    count = np.asarray(ends, dtype=np.int64) - low
    every = np.arange(low.shape[0], dtype=np.int64)
    while True:
        half = count >> 1
        if not half.any():
            break
        middle = low + half
        probes = np.minimum(middle, similarities.shape[0] - 1)
        np.copyto(low, middle, where=sorts_before(probes, every))
        count -= half
    last = np.flatnonzero(count)
    low[last[sorts_before(low[last], last)]] += 1
    return low


def _adjacency(graph: Graph, vertices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Arc positions of ``vertices``' rows, and each arc's source."""
    counts = graph.degrees[vertices]
    return segmented_ranges(graph.indptr[vertices], counts), np.repeat(vertices, counts)


# ----------------------------------------------------------------------
# Stage 1: graph splice
# ----------------------------------------------------------------------
def _validate_batch(graph: Graph, batch: UpdateBatch) -> None:
    """Reject out-of-range, already-present, or absent ops with clear errors."""
    n = graph.num_vertices
    for kind, us, vs in (
        ("insertion", batch.insert_u, batch.insert_v),
        ("deletion", batch.delete_u, batch.delete_v),
    ):
        if us.size and int(vs.max()) >= n:
            offender = int(vs.max())
            raise ValueError(
                f"{kind} endpoint {offender} is out of range for a graph of "
                f"{n} vertices (the index's vertex set is fixed)"
            )
    if batch.insert_weights is not None and not graph.is_weighted:
        raise ValueError(
            "insertions carry explicit weights but the indexed graph is "
            "unweighted; drop the weights or rebuild a weighted index"
        )
    if batch.delete_u.size:
        _, found = graph.locate_neighbors(batch.delete_u, batch.delete_v)
        if not found.all():
            missing = int(np.flatnonzero(~found)[0])
            raise ValueError(
                f"cannot delete edge ({int(batch.delete_u[missing])}, "
                f"{int(batch.delete_v[missing])}): not in the graph"
            )
    if batch.insert_u.size:
        _, found = graph.locate_neighbors(batch.insert_u, batch.insert_v)
        if found.any():
            # Inserting a present edge is allowed only as the insert half
            # of a delete + re-insert reweight pair (weighted batches keep
            # such pairs instead of cancelling them).
            span = np.int64(max(n, 1))
            deleted_too = np.isin(
                batch.insert_u * span + batch.insert_v,
                batch.delete_u * span + batch.delete_v,
            )
            offending = found & ~deleted_too
            if offending.any():
                present = int(np.flatnonzero(offending)[0])
                raise ValueError(
                    f"cannot insert edge ({int(batch.insert_u[present])}, "
                    f"{int(batch.insert_v[present])}): already in the graph"
                )


def _old_to_new_edge_ids(
    num_old: int, deleted_ids: np.ndarray, insert_ranks: np.ndarray
) -> np.ndarray:
    """New id of every old edge id (``-1`` for deleted edges), as ``ID_DTYPE``.

    A surviving id moves down by the deletions before it and up by the
    insertions ranked at or before it: a step function with ``O(b)``
    breakpoints, expanded by one repeat.
    """
    breakpoints = np.concatenate([deleted_ids + 1, insert_ranks])
    steps = np.concatenate([
        np.full(deleted_ids.shape[0], -1, dtype=ID_DTYPE),
        np.ones(insert_ranks.shape[0], dtype=ID_DTYPE),
    ])
    order = np.argsort(breakpoints, kind="stable")
    breakpoints = breakpoints[order]
    levels = np.concatenate(
        [np.zeros(1, dtype=ID_DTYPE), np.cumsum(steps[order], dtype=ID_DTYPE)]
    )
    lengths = np.diff(breakpoints, prepend=0, append=num_old)
    # Edge ids, so ID_DTYPE like the arc_edge_ids column it remaps.
    old_to_new = np.arange(num_old, dtype=ID_DTYPE) + np.repeat(levels, lengths)
    old_to_new[deleted_ids] = -1
    return old_to_new


def _insert_ranks(graph: Graph, ins_u: np.ndarray, ins_pos_uv: np.ndarray) -> np.ndarray:
    """Number of old edges before each inserted ``(u, v)``, ``u < v``.

    ``ins_pos_uv`` is ``v``'s located position in row ``u``.  Every arc
    from there to the row's end is forward (its target is at least
    ``v > u``), so the first one's id is the rank.  When ``v`` falls past
    the row's end, the rank is the id of the first forward arc of the next
    row that has one -- found by one O(n) pass over the row maxima -- or
    ``m`` when no later row has one.
    """
    ranks = np.full(ins_u.shape[0], graph.num_edges, dtype=np.int64)
    inside = ins_pos_uv < graph.indptr[ins_u + 1]
    ranks[inside] = graph.arc_edge_ids[ins_pos_uv[inside]]
    past = np.flatnonzero(~inside)
    if past.size:
        rows = np.flatnonzero(graph.degrees)
        rows = rows[graph.indices[graph.indptr[rows + 1] - 1] > rows]
        following = np.searchsorted(rows, ins_u[past], side="right")
        has_next = following < rows.size
        rows = rows[following[has_next]]
        first_forward, _ = graph.locate_neighbors(rows, rows)
        ranks[past[has_next]] = graph.arc_edge_ids[first_forward]
    return ranks


def _splice_graph(
    graph: Graph, batch: UpdateBatch, scheduler: Scheduler
) -> tuple[Graph, np.ndarray, np.ndarray, np.ndarray]:
    """Apply the batch to the CSR arrays and the canonical edge numbering.

    Returns ``(new_graph, old_to_new, deleted_ids, inserted_edge_ids)``:
    ``old_to_new`` maps every old canonical edge id to its new id (``-1``
    for deleted edges), ``deleted_ids`` lists the old ids of the deletions
    and ``inserted_edge_ids`` the new ids of the insertions, both aligned
    with the batch's (lex-sorted) op arrays.

    The two arcs of every op are located by binary search in their rows;
    each arc column is then spliced once at those positions (inserted arcs
    land at their searched in-row positions, so no row is re-sorted).
    """
    num_old = graph.num_edges
    ins_u, ins_v, del_u, del_v = (
        batch.insert_u, batch.insert_v, batch.delete_u, batch.delete_v,
    )
    num_ins, num_del = int(ins_u.size), int(del_u.size)

    # --- Canonical edge numbering: edge ids number the forward arcs
    # (target > source) in CSR order.  A deleted edge's id is read off its
    # forward arc; an inserted edge ranks at the old edges before it
    # (:func:`_insert_ranks`).
    del_pos_uv, _ = graph.locate_neighbors(del_u, del_v)
    del_pos_vu, _ = graph.locate_neighbors(del_v, del_u)
    deleted_ids = graph.arc_edge_ids[del_pos_uv]
    ins_pos_uv, _ = graph.locate_neighbors(ins_u, ins_v)
    ins_pos_vu, _ = graph.locate_neighbors(ins_v, ins_u)
    insert_ranks = _insert_ranks(graph, ins_u, ins_pos_uv)
    inserted_edge_ids = _insertion_slots(deleted_ids, insert_ranks)
    old_to_new = _old_to_new_edge_ids(num_old, deleted_ids, insert_ranks)

    # --- Arc splice at the located positions.  The final CSR order is
    # (source, target), and insertion points are non-decreasing under it.
    sources = np.concatenate([ins_u, ins_v])
    targets = np.concatenate([ins_v, ins_u])
    order = np.lexsort((targets, sources))
    points = np.concatenate([ins_pos_uv, ins_pos_vu])[order]
    removed = np.sort(np.concatenate([del_pos_uv, del_pos_vu]))
    slots = _insertion_slots(removed, points)
    # Arc edge ids are spliced as old ids and shifted in place; the inserted
    # arcs' new ids go in after the shift.
    columns = [graph.indices, graph.arc_edge_ids]
    inserted = [targets[order], np.zeros(points.shape[0], dtype=ID_DTYPE)]
    if graph.is_weighted:
        weights = (
            batch.insert_weights
            if batch.insert_weights is not None
            else np.ones(num_ins, dtype=np.float64)
        )
        columns.append(graph.arc_weights)
        inserted.append(np.concatenate([weights, weights])[order])
    spliced = _splice(tuple(columns), removed, slots, tuple(inserted))
    if num_old:
        _remap_in_place(old_to_new, spliced[1])
    spliced[1][slots] = np.concatenate([inserted_edge_ids, inserted_edge_ids])[order]

    degrees = graph.degrees.copy()
    np.add.at(degrees, sources, 1)
    np.subtract.at(degrees, np.concatenate([del_u, del_v]), 1)
    new_indptr = np.zeros(degrees.shape[0] + 1, dtype=np.int64)
    np.cumsum(degrees, out=new_indptr[1:])

    # Splice cost: memcpy-scale passes over the arc arrays plus O(b log)
    # searches.
    num_new_arcs = int(spliced[0].shape[0])
    scheduler.charge(
        graph.num_arcs + num_new_arcs + (num_ins + num_del) * (ceil_log2(max(num_old, 1)) + 1.0),
        ceil_log2(max(num_new_arcs, 1)) + 1.0,
    )
    new_graph = Graph.from_index_columns(
        new_indptr, spliced[0], spliced[2] if graph.is_weighted else None, spliced[1]
    )
    return new_graph, old_to_new, deleted_ids, inserted_edge_ids


# ----------------------------------------------------------------------
# Stage 2: affected similarity recompute
# ----------------------------------------------------------------------
def _triangle_sides(
    graph: Graph, op_u: np.ndarray, op_v: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Triangles through each op edge: ``(op_index, side1_ids, side2_ids)``.

    For every op edge ``(u, v)``, the edges whose closed-neighborhood dot
    product gains or loses a term when ``(u, v)`` appears or disappears are
    exactly the two side edges ``(u, x)``/``(v, x)`` of each triangle
    through ``(u, v)`` (the op edge itself is handled by the caller).  One
    batched probe of the lower-degree endpoint's neighbors against the
    other endpoint's list -- ``O(Σ min(deg u, deg v))`` work for the whole
    batch -- enumerates them, one row per triangle.
    """
    degrees = graph.degrees
    swap = degrees[op_u] > degrees[op_v]
    op_u, op_v = np.where(swap, op_v, op_u), np.where(swap, op_u, op_v)
    counts = degrees[op_u]
    if int(counts.sum()) == 0:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty.copy(), empty.copy()
    candidate_pos = segmented_ranges(graph.indptr[op_u], counts)
    candidates = graph.indices[candidate_pos]
    positions, found = graph.locate_neighbors(np.repeat(op_v, counts), candidates)
    op_index = np.repeat(np.arange(op_u.shape[0], dtype=np.int64), counts)
    return (
        op_index[found],
        graph.arc_edge_ids[candidate_pos[found]],  # edges (u, x)
        graph.arc_edge_ids[positions[found]],      # edges (v, x)
    )


def _rank_among(sorted_ids: np.ndarray, edge_ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rank of each id within a sorted id array, plus a membership mask."""
    rank = np.searchsorted(sorted_ids, edge_ids)
    member = np.zeros(edge_ids.shape[0], dtype=bool)
    in_range = rank < sorted_ids.shape[0]
    member[in_range] = sorted_ids[rank[in_range]] == edge_ids[in_range]
    return rank, member


def _triangle_deltas(
    graph: Graph,
    op_u: np.ndarray,
    op_v: np.ndarray,
    op_edge_ids: np.ndarray,
    map_ids,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-edge triangle-count deltas caused by the given op edges.

    Enumerates every triangle through an op edge in ``graph`` and adds one
    to both side edges -- attributing each triangle to its lowest-ranked op
    edge so a triangle closed by several ops of one batch counts exactly
    once, and skipping side edges that are ops themselves (their numerators
    are computed fresh).  ``map_ids`` translates ``graph``'s edge ids into
    the output numbering (identity for insertions enumerated on the new
    graph; the old-to-new map for deletions enumerated on the old one).
    Returns ``(edge_ids, counts)`` over the edges with a nonzero delta,
    plus the number of triangles through each op edge.
    """
    op_index, side1, side2 = _triangle_sides(graph, op_u, op_v)
    rank1, is_op1 = _rank_among(op_edge_ids, side1)
    rank2, is_op2 = _rank_among(op_edge_ids, side2)
    sentinel = np.int64(op_edge_ids.shape[0] + 1)
    lowest_other = np.minimum(
        np.where(is_op1, rank1, sentinel), np.where(is_op2, rank2, sentinel)
    )
    attributed = lowest_other > op_index
    contribute = map_ids(np.concatenate([
        side1[attributed & ~is_op1], side2[attributed & ~is_op2],
    ]))
    edge_ids, counts = np.unique(contribute, return_counts=True)
    return edge_ids, counts, np.bincount(op_index, minlength=op_u.shape[0])


def _numerator_affected_edges(
    old_graph: Graph,
    new_graph: Graph,
    batch: UpdateBatch,
    old_to_new: np.ndarray,
    inserted_edge_ids: np.ndarray,
) -> np.ndarray:
    """New-graph edge ids whose closed-neighborhood numerator changed.

    A term ``(a, b, x)`` of ``num(a, b)`` appears or disappears only when
    an edge of the triangle ``{a, b, x}`` was inserted or deleted, so the
    changed numerators are the op edges themselves plus the side edges of
    every triangle through an op edge -- enumerated on the *new* graph for
    insertions and the *old* graph (then id-mapped) for deletions.  This is
    typically far smaller than "all edges incident to a touched endpoint",
    which only bounds where the *denominators* change.
    """
    pieces = [inserted_edge_ids]
    if batch.insert_u.size:
        _, side1, side2 = _triangle_sides(new_graph, batch.insert_u, batch.insert_v)
        pieces.extend([side1, side2])
    if batch.delete_u.size:
        _, side1, side2 = _triangle_sides(old_graph, batch.delete_u, batch.delete_v)
        mapped = old_to_new[np.concatenate([side1, side2])]
        pieces.append(mapped[mapped >= 0])
    return sorted_unique(np.concatenate(pieces))


def _patched_similarities(
    index,
    batch: UpdateBatch,
    new_graph: Graph,
    old_to_new: np.ndarray,
    deleted_ids: np.ndarray,
    inserted_edge_ids: np.ndarray,
    affected_edges: np.ndarray,
    affected_endpoints: tuple[np.ndarray, np.ndarray],
    scheduler: Scheduler,
) -> EdgeSimilarities:
    """Splice the edge-indexed columns and re-finalise the affected edges.

    Denominators (degrees / norms) change for every edge incident to a
    touched endpoint; numerators only for the triangle-affected subset.
    With stored numerators the former are re-finalised elementwise and only
    the latter pay intersection work; without them (an index assembled by
    hand from scores alone) every affected edge recomputes its numerator
    through the subset pass.  Inserted edges enter the splice as zeros and
    are always affected.
    """
    graph = index.graph
    old_numerators = index.similarities.numerators
    columns = [index.similarities.values]
    if old_numerators is not None:
        columns.append(old_numerators)
    placeholder = np.zeros(inserted_edge_ids.shape[0], dtype=np.float64)
    spliced = _splice(
        tuple(columns), deleted_ids, inserted_edge_ids, (placeholder,) * len(columns)
    )
    values = spliced[0]
    if old_numerators is None:
        numerators = None
    else:
        numerators = spliced[1]
        if new_graph.arc_weights is None:
            # Unweighted: every triangle term is exactly 1, so surviving
            # numerators delta-update with integer adds -- bit-equal to a
            # fresh count, in work proportional to the triangles through
            # the op edges -- and an inserted edge's numerator is 2 plus
            # the triangles through it, which the same listing counts.
            if batch.insert_u.size:
                ids, counts, triangles = _triangle_deltas(
                    new_graph, batch.insert_u, batch.insert_v,
                    inserted_edge_ids, lambda ids: ids,
                )
                numerators[ids] += counts
                numerators[inserted_edge_ids] = 2.0 + triangles
                # Charged as the subset pass would: one probe per neighbor
                # of the lower-degree endpoint, plus one, per inserted edge.
                degrees = new_graph.degrees
                costs = np.minimum(degrees[batch.insert_u], degrees[batch.insert_v]) + 1
                scheduler.charge(
                    float(costs.sum()),
                    ceil_log2(int(costs.max())) + 1.0 + ceil_log2(costs.shape[0]) + 1.0,
                )
            if batch.delete_u.size:

                def _surviving(ids: np.ndarray) -> np.ndarray:
                    mapped = old_to_new[ids]
                    return mapped[mapped >= 0]

                ids, counts, _ = _triangle_deltas(
                    graph, batch.delete_u, batch.delete_v, deleted_ids, _surviving,
                )
                numerators[ids] -= counts
        else:
            # Weighted: float triangle terms would drift under repeated
            # deltas, so the triangle-affected subset recomputes fresh.
            recompute = _numerator_affected_edges(
                graph, new_graph, batch, old_to_new, inserted_edge_ids
            )
            if recompute.size:
                numerators[recompute] = edge_numerators_for_subset(
                    new_graph, recompute, scheduler
                )
    if affected_edges.size:
        fresh = (
            numerators[affected_edges]
            if numerators is not None
            else edge_numerators_for_subset(new_graph, affected_edges, scheduler)
        )
        values[affected_edges] = finalise_numerators(
            new_graph, fresh, index.measure,
            endpoints=affected_endpoints, scheduler=scheduler,
        )
    return EdgeSimilarities(
        new_graph, values, index.measure, index.similarities.backend,
        numerators=numerators,
    )


# ----------------------------------------------------------------------
# Stage 3: neighbor-order patch
# ----------------------------------------------------------------------
def _patch_neighbor_order(
    old_order: NeighborOrder,
    old_graph: Graph,
    new_graph: Graph,
    old_values: np.ndarray,
    new_values: np.ndarray,
    touched: np.ndarray,
    scheduler: Scheduler,
) -> tuple[NeighborOrder, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Resplice ``NO`` so it equals a rebuild on the patched graph.

    ``NO[v]`` is "neighbors of ``v`` by (similarity desc, id asc)" -- a
    value-determined order.  Only arcs incident to a touched vertex
    changed.  The whole segment of a touched vertex is replaced by its new
    arcs, sorted among themselves.  An untouched ``x`` keeps its segment
    length; only its entries of touched neighbors ``t`` were re-scored, and
    each is located twice in the old ``NO[x]``: under its old key (the
    entry to remove) and its new key (where the replacement goes -- the
    lower bound counts only kept entries once the splice drops the removed
    ones).

    Returns the new order plus, for every untouched vertex whose segment
    changed, its lowest and highest changed position: ``(vertices, low,
    high)``, the only window where its core thresholds can move.
    """
    old_indptr = np.asarray(old_order.indptr)
    old_neighbors = np.asarray(old_order.neighbors)
    old_sims = np.asarray(old_order.similarities)
    new_indptr = new_graph.indptr
    touched_mask = np.zeros(new_graph.num_vertices, dtype=bool)
    touched_mask[touched] = True

    # T's new arcs, and the (x, t) pairs among them with x untouched.  An
    # (x, t) edge is no op, so T's old rows list the same pairs in the same
    # order: their old scores come from there.
    new_pos, new_src = _adjacency(new_graph, touched)
    new_nbr = new_graph.indices[new_pos]
    new_sims = new_values[new_graph.arc_edge_ids[new_pos]]
    outside = ~touched_mask[new_nbr]
    pair_x, pair_t, pair_new = new_nbr[outside], new_src[outside], new_sims[outside]
    old_rows, _ = _adjacency(old_graph, touched)
    old_pairs = old_rows[~touched_mask[old_graph.indices[old_rows]]]
    pair_old = old_values[old_graph.arc_edge_ids[old_pairs]]

    starts, ends = old_indptr[pair_x], old_indptr[pair_x + 1]
    old_entry = _ordered_lower_bound(
        old_sims, old_neighbors.take, starts, ends, pair_old, pair_t
    )
    new_point = _ordered_lower_bound(
        old_sims, old_neighbors.take, starts, ends, pair_new, pair_t
    )
    # NO shares the graph's row offsets, so T's old rows are its segments.
    removed = np.sort(np.concatenate([old_rows, old_entry]))

    # Inserted run: the replacements at their points, and T's re-sorted
    # segments where the old ones started.  Ordered by (source, similarity
    # desc, neighbor asc), the points are non-decreasing.
    q_src = np.concatenate([pair_x, new_src])
    q_nbr = np.concatenate([pair_t, new_nbr])
    q_sims = np.concatenate([pair_new, new_sims])
    points = np.concatenate([new_point, old_indptr[new_src]])
    order = np.lexsort((q_nbr, -q_sims, q_src))
    slots = _insertion_slots(removed, points[order])
    neighbors, similarities = _splice(
        (old_neighbors, old_sims), removed, slots, (q_nbr[order], q_sims[order])
    )

    # Changed window of every untouched segment: its removed old positions
    # and its inserted new positions, segment-local.
    q_src = q_src[order]
    replaced = ~touched_mask[q_src]
    window_x = np.concatenate([pair_x, q_src[replaced]])
    local = np.concatenate([
        old_entry - starts, slots[replaced] - new_indptr[q_src[replaced]],
    ])
    by_vertex = np.lexsort((local, window_x))
    window_x, local = window_x[by_vertex], local[by_vertex]
    vertices, first = np.unique(window_x, return_index=True)
    last = np.searchsorted(window_x, vertices, side="right") - 1
    low, high = local[first], local[last]

    max_segment = int(old_graph.max_degree)
    scheduler.charge(
        new_graph.num_arcs + int(pair_x.size) * 2 * (ceil_log2(max(max_segment, 1)) + 1.0),
        2 * ceil_log2(max(new_graph.num_arcs, 1)) + 1.0,
    )
    order_out = NeighborOrder(
        indptr=new_indptr.copy(), neighbors=neighbors, similarities=similarities
    )
    return order_out, (vertices, low, high)


# ----------------------------------------------------------------------
# Stage 4: core-order patch
# ----------------------------------------------------------------------
def _patch_core_order(
    old_order: CoreOrder,
    old_neighbor_order: NeighborOrder,
    new_neighbor_order: NeighborOrder,
    old_graph: Graph,
    new_graph: Graph,
    touched: np.ndarray,
    window: tuple[np.ndarray, np.ndarray, np.ndarray],
    scheduler: Scheduler,
) -> CoreOrder:
    """Resplice ``CO`` so it equals a rebuild on the patched graph.

    ``CO[μ]`` is "candidate cores by (threshold desc, degree desc, id asc)"
    -- also value-determined.  Its entry ``(v, μ)`` carries the threshold
    ``NO[v][μ - 2]``.  The entries that can change are every entry of a
    touched vertex (its degree, and so its tie key and μ range, changed) and,
    for an untouched ``x``, the entries inside the changed window the
    neighbor-order patch reports -- of which only those whose threshold bits
    differ are moved.  Each is located in its old segment by the
    lexicographic search under its old key and re-inserted at the search
    position of its new key; the ``(n - degree, id)`` tie key is computed
    for probed entries only.
    """
    n = new_graph.num_vertices
    old_co_indptr = np.asarray(old_order.indptr)
    old_vertices = np.asarray(old_order.vertices)
    old_thresholds = np.asarray(old_order.thresholds)
    old_max_mu = old_order.max_mu
    old_no_indptr = np.asarray(old_neighbor_order.indptr)
    old_no_sims = np.asarray(old_neighbor_order.similarities)
    new_no_sims = np.asarray(new_neighbor_order.similarities)
    old_degrees, new_degrees = old_graph.degrees, new_graph.degrees
    new_max_mu = int(new_degrees.max(initial=0)) + 1 if n else 1

    # Moved entries of untouched vertices: window positions whose threshold
    # bits changed (segment lengths, hence offsets, are unchanged there).
    vertices, low, high = window
    widths = high - low + 1
    x = np.repeat(vertices, widths)
    k = segmented_arange(widths) + np.repeat(low, widths)
    before = old_no_sims[old_no_indptr[x] + k]
    after = new_no_sims[new_neighbor_order.indptr[x] + k]
    moved = before.view(np.int64) != after.view(np.int64)
    x, k, before, after = x[moved], k[moved], before[moved], after[moved]

    # Every entry of a touched vertex, at its old and at its new degree.
    old_counts, new_counts = old_degrees[touched], new_degrees[touched]
    old_k = segmented_arange(old_counts)
    new_k = segmented_arange(new_counts)
    old_t = np.repeat(touched, old_counts)
    new_t = np.repeat(touched, new_counts)

    def tie(vertex, degrees):
        return (np.int64(n) - degrees[vertex]) * np.int64(n + 1) + vertex

    def tie_at(positions):
        return tie(old_vertices[positions], old_degrees)

    def segment_bounds(mu):
        # μ segments past the old maximum are empty, at the old end.
        return (
            old_co_indptr[np.minimum(mu, old_max_mu + 1)],
            old_co_indptr[np.minimum(mu + 1, old_max_mu + 1)],
        )

    # Both runs are searched in (μ, key) order, so each round's probes walk
    # the column forward and the removed positions come out sorted.
    removed_mu = np.concatenate([k, old_k]) + 2
    r_thresholds = np.concatenate([before, old_no_sims[old_no_indptr[old_t] + old_k]])
    r_tie = tie(np.concatenate([x, old_t]), old_degrees)
    order = np.lexsort((r_tie, -r_thresholds, removed_mu))
    starts, ends = segment_bounds(removed_mu[order])
    removed = _ordered_lower_bound(
        old_thresholds, tie_at, starts, ends, r_thresholds[order], r_tie[order]
    )

    q_vertex = np.concatenate([x, new_t])
    q_mu = np.concatenate([k, new_k]) + 2
    q_thresholds = np.concatenate(
        [after, new_no_sims[new_neighbor_order.indptr[new_t] + new_k]]
    )
    q_tie = tie(q_vertex, new_degrees)
    order = np.lexsort((q_tie, -q_thresholds, q_mu))
    q_vertex, q_mu, q_thresholds, q_tie = (
        q_vertex[order], q_mu[order], q_thresholds[order], q_tie[order]
    )
    starts, ends = segment_bounds(q_mu)
    points = _ordered_lower_bound(
        old_thresholds, tie_at, starts, ends, q_thresholds, q_tie
    )
    slots = _insertion_slots(removed, points)
    vertices_out, thresholds_out = _splice(
        (old_vertices, old_thresholds), removed, slots, (q_vertex, q_thresholds)
    )

    # Segment lengths change only by the removed and inserted counts per μ.
    size = max(old_max_mu, new_max_mu) + 1
    lengths = np.zeros(size, dtype=np.int64)
    lengths[: old_max_mu + 1] = np.diff(old_co_indptr)
    lengths -= np.bincount(removed_mu, minlength=size)
    lengths += np.bincount(q_mu, minlength=size)
    indptr = np.zeros(new_max_mu + 2, dtype=np.int64)
    np.cumsum(lengths[: new_max_mu + 1], out=indptr[1:])

    total = int(indptr[-1])
    max_segment = int(np.diff(old_co_indptr).max(initial=0))
    scheduler.charge(
        total + int(q_mu.size + removed_mu.size) * (ceil_log2(max(max_segment, 1)) + 1.0),
        2 * ceil_log2(max(total, 1)) + 1.0,
    )
    return CoreOrder(indptr=indptr, vertices=vertices_out, thresholds=thresholds_out)


# ----------------------------------------------------------------------
# The public entry point
# ----------------------------------------------------------------------
def apply_updates(
    index,
    batch: UpdateBatch,
    *,
    scheduler: Scheduler | None = None,
) -> UpdateReport:
    """Apply ``batch`` to ``index`` **in place**, repairing every component.

    After this returns, ``index`` answers queries exactly as an index
    rebuilt from scratch on the mutated graph would -- same graph columns,
    same per-edge scores, same neighbor and core orders, same clusterings
    -- while the similarity and sorting work done is
    proportional to the affected neighborhoods only.

    Side effects beyond the index components: an entry is appended to
    ``index.update_lineage`` (persisted by :meth:`ScanIndex.save
    <repro.core.index.ScanIndex.save>`) and the index's mutation epoch is
    bumped, so every open :class:`~repro.serve.session.ClusterSession`
    clears its cache on its next request and stops serving pre-update
    entries (see ``docs/ARCHITECTURE.md``).

    Traced runs record one ``dynamic.apply`` span enclosing the stages
    ``dynamic.splice``, ``dynamic.similarity_delta`` and
    ``dynamic.order_repair`` (with ``dynamic.order_repair.neighbor_order``
    and ``dynamic.order_repair.core_order`` inside it).

    Raises ``ValueError`` for LSH-approximate indexes (sketches are global;
    no localized recompute can reproduce a rebuild), for insertions of
    present edges, deletions of absent edges, out-of-range endpoints, or
    weighted insertions into an unweighted index.
    """
    scheduler = scheduler if scheduler is not None else Scheduler()
    started = time.perf_counter()
    if index.similarities.backend == "lsh" or index.measure.startswith("approx_"):
        raise ValueError(
            "dynamic updates require an exactly built index; LSH-approximate "
            "similarities come from global sketches and must be rebuilt"
        )
    graph = index.graph
    _validate_batch(graph, batch)
    if batch.is_empty:
        return UpdateReport(
            insertions=0,
            deletions=0,
            cancelled=batch.num_cancelled,
            affected_edges=0,
            affected_vertices=0,
            wall_seconds=time.perf_counter() - started,
        )

    with obs.span(
        "dynamic.apply", insertions=batch.num_insertions, deletions=batch.num_deletions
    ):
        with obs.span("dynamic.splice"):
            new_graph, old_to_new, deleted_ids, inserted_edge_ids = _splice_graph(
                graph, batch, scheduler
            )

        touched = batch.touched_vertices()
        with obs.span("dynamic.similarity_delta"):
            affected_edges, affected_u, affected_v = batch.affected_edges(new_graph)
            similarities = _patched_similarities(
                index, batch, new_graph, old_to_new, deleted_ids,
                inserted_edge_ids, affected_edges, (affected_u, affected_v),
                scheduler,
            )

        # Affected vertices: touched endpoints plus their (new) neighbors --
        # every vertex whose NO segment or CO entries can differ from before.
        new_pos, _ = _adjacency(new_graph, touched)
        affected_vertices = sorted_unique(
            np.concatenate([touched, new_graph.indices[new_pos]])
        )
        # Order repair: merge sorted runs at low churn; past the measured
        # crossover the changed runs cover most of every segment, and the
        # construction-path segmented sorts (bit-identical by definition --
        # they ARE what a rebuild runs) are simply faster.  The changed arcs
        # are both arcs of every edge incident to a touched vertex.
        changed_arcs = 2 * int(affected_edges.size)
        if changed_arcs > ORDER_REBUILD_CHURN * max(new_graph.num_arcs, 1):
            order_strategy = "resort"
        else:
            order_strategy = "merge"
        obs.counter(f"dynamic.order_repair.{order_strategy}_total").inc()
        with obs.span(
            "dynamic.order_repair", strategy=order_strategy, changed_arcs=changed_arcs
        ):
            if order_strategy == "resort":
                with obs.span("dynamic.order_repair.neighbor_order"):
                    neighbor_order, epsilon_boundaries, ranks = build_neighbor_order(
                        new_graph, similarities, scheduler=scheduler
                    )
                with obs.span("dynamic.order_repair.core_order"):
                    core_order = build_core_order(
                        new_graph, neighbor_order, ranks, scheduler=scheduler
                    )
            else:
                with obs.span("dynamic.order_repair.neighbor_order"):
                    neighbor_order, window = _patch_neighbor_order(
                        index.neighbor_order, graph, new_graph,
                        np.asarray(index.similarities.values), similarities.values,
                        touched, scheduler,
                    )
                with obs.span("dynamic.order_repair.core_order"):
                    core_order = _patch_core_order(
                        index.core_order, index.neighbor_order, neighbor_order,
                        graph, new_graph, touched, window, scheduler,
                    )
                # The ε boundary table of the patched scores, exactly as a
                # rebuild ranks it: one sort of the m edge scores (the
                # resort path's builder already returned it).
                epsilon_boundaries = sorted_unique(similarities.values)

    report = UpdateReport(
        insertions=batch.num_insertions,
        deletions=batch.num_deletions,
        cancelled=batch.num_cancelled,
        affected_edges=int(affected_edges.size),
        affected_vertices=int(affected_vertices.size),
        wall_seconds=time.perf_counter() - started,
        order_strategy=order_strategy,
    )
    # Always-on update metrics (one batch = one observation, a cold path):
    # the affected-set size distributions and the churn decision are the
    # post-hoc record of how incremental the workload actually was.
    from ..obs.metrics import SIZE_BOUNDS

    obs.histogram("dynamic.affected_edges", SIZE_BOUNDS).observe(
        int(affected_edges.size)
    )
    obs.histogram("dynamic.affected_vertices", SIZE_BOUNDS).observe(
        int(affected_vertices.size)
    )
    obs.histogram("dynamic.update_seconds").observe(report.wall_seconds)
    obs.event(
        "dynamic.apply_updates",
        insertions=report.insertions,
        deletions=report.deletions,
        affected_edges=report.affected_edges,
        affected_vertices=report.affected_vertices,
        strategy=order_strategy,
    )

    # Commit, then tell the world: lineage for persistence, and an epoch
    # bump so every open session clears its cache and re-wraps the new
    # boundary table.
    index.graph = new_graph
    index.similarities = similarities
    index.neighbor_order = neighbor_order
    index.core_order = core_order
    index.epsilon_boundaries = epsilon_boundaries
    index.update_lineage.append(
        {
            "insertions": report.insertions,
            "deletions": report.deletions,
            "cancelled": report.cancelled,
            "affected_edges": report.affected_edges,
            "affected_vertices": report.affected_vertices,
            "order_strategy": report.order_strategy,
        }
    )
    index._mutation_epoch += 1
    return report
