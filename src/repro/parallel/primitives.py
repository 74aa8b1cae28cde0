"""Segmented array primitives the vectorised engines are built on.

The paper states its bounds through the primitives of Section 2.3.2 (reduce,
filter, scan, remove duplicates, hash tables, integer sort).  This
implementation runs those steps as whole-array numpy operations inside the
algorithms and charges their work and span inline with
:meth:`~repro.parallel.scheduler.Scheduler.charge`, so no standalone wrapper
per primitive exists.  What is shared is the handful of segmented helpers
below, none of which charges a scheduler -- callers account for them as part
of the surrounding parallel step:

==============================  ================================================
helper                          used by
==============================  ================================================
:func:`segmented_arange`        core-order construction, patch
:func:`segmented_ranges`        queries, sweep planner, similarity, LSH, patch
:func:`segmented_searchsorted`  batched adjacency probes (graph)
:func:`sorted_unique`           update path (dedupe of touched ids)
==============================  ================================================
"""

from __future__ import annotations

import numpy as np


def sorted_unique(values: np.ndarray) -> np.ndarray:
    """Distinct values of ``values`` in ascending order (no scheduler charge).

    One sort and one adjacent compare.  ``np.unique`` without extra outputs
    takes a hash-table path in numpy >= 2.3 that measured 15-20x slower on
    int64 arrays of 10^4-10^5 items, which is what the update path dedupes,
    and its first call in a process imports ``numpy.ma`` (13.5-18.3 ms in a
    fresh interpreter on a 2-vCPU VM), which a one-shot ``repro update``
    would pay.
    """
    ordered = np.sort(np.asarray(values))
    distinct = np.ones(ordered.shape[0], dtype=bool)
    distinct[1:] = ordered[1:] != ordered[:-1]
    return ordered[distinct]


def segmented_arange(counts: np.ndarray) -> np.ndarray:
    """Concatenation of ``arange(counts[i])`` for every segment ``i``.

    The pair-expansion step the vectorised engines are built on: a flat index
    within each segment, computed with one scan and two gathers (no scheduler
    charge -- callers account for the expansion as part of the surrounding
    parallel step).
    """
    counts = np.asarray(counts, dtype=np.int64)
    total = int(counts.sum())
    if total == 0:
        return np.zeros(0, dtype=np.int64)
    starts = np.cumsum(counts) - counts
    return np.arange(total, dtype=np.int64) - np.repeat(starts, counts)


def segmented_searchsorted(
    values: np.ndarray,
    queries: np.ndarray,
    starts: np.ndarray,
    ends: np.ndarray,
) -> np.ndarray:
    """Per-query lower-bound binary search bounded to a segment of ``values``.

    For every query ``i`` the search runs over ``values[starts[i]:ends[i]]``
    (which must be sorted ascending) and returns the absolute position of the
    first entry ``>= queries[i]`` (``ends[i]`` when every entry is smaller).
    All queries advance *simultaneously*: the loop below runs
    ``O(log max_segment_length)`` rounds of whole-array compares, never one
    iteration per query, so the log factor is the segment length rather than
    the length of ``values`` -- the point of routing adjacency probes through
    this instead of a global ``np.searchsorted`` over composite keys.
    """
    queries = np.asarray(queries)
    low = np.asarray(starts, dtype=np.int64).copy()
    high = np.asarray(ends, dtype=np.int64).copy()
    if low.shape != high.shape or low.shape != queries.shape:
        raise ValueError("queries, starts and ends must have equal shape")
    active = np.flatnonzero(low < high)
    while active.size:
        middle = (low[active] + high[active]) >> 1
        below = values[middle] < queries[active]
        low[active] = np.where(below, middle + 1, low[active])
        high[active] = np.where(below, high[active], middle)
        active = active[low[active] < high[active]]
    return low


def segmented_ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenation of ``arange(starts[i], starts[i] + counts[i])`` per segment.

    The start-shifted variant of :func:`segmented_arange`, fused into a single
    repeat: block ``i`` is one shifted arange beginning at ``starts[i]``, so
    repeating the per-segment shift over a flat arange covers all segments at
    once.  This is the canonical gather-expansion of the vectorised engines
    (candidate positions of a CSR segment, prefix positions of an order).
    """
    starts = np.asarray(starts, dtype=np.int64)
    counts = np.asarray(counts, dtype=np.int64)
    total = int(counts.sum())
    if total == 0:
        return np.zeros(0, dtype=np.int64)
    block_starts = np.cumsum(counts) - counts
    return np.arange(total, dtype=np.int64) + np.repeat(starts - block_starts, counts)
