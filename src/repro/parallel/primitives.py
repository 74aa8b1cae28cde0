"""Data-parallel array primitives with work-span accounting.

These mirror the primitives listed in Section 2.3.2 of the paper: ``reduce``,
``filter``, ``scan`` (prefix sums), and ``remove duplicates``.  Each function
takes the :class:`~repro.parallel.scheduler.Scheduler` whose counter should be
charged; the actual computation is delegated to numpy where that is natural so
the primitives are also fast in wall-clock terms.

Work/span charges follow the bounds quoted in the paper:

============================  ==========  ============
primitive                     work        span
============================  ==========  ============
reduce / filter / scan        O(n)        O(log n)
remove duplicates (hashing)   O(n)        O(log* n)
============================  ==========  ============
"""

from __future__ import annotations

from typing import Callable, Sequence, TypeVar

import numpy as np

from .metrics import ceil_log2
from .scheduler import Scheduler

T = TypeVar("T")

#: Span charged for hash-table based primitives; stands in for O(log* n),
#: which is at most 5 for any input that fits in memory.
LOG_STAR_SPAN = 5.0


def parallel_reduce(
    scheduler: Scheduler,
    values: Sequence[float] | np.ndarray,
    operation: Callable[[np.ndarray], float] = np.sum,
) -> float:
    """Reduce ``values`` with an associative ``operation`` (default: sum).

    Work O(n), span O(log n).
    """
    array = np.asarray(values)
    n = int(array.size)
    scheduler.charge(n, ceil_log2(n) + 1.0)
    if n == 0:
        return float(operation(np.zeros(1))) * 0.0
    return float(operation(array))


def parallel_max(scheduler: Scheduler, values: Sequence[float] | np.ndarray) -> float:
    """Maximum element of ``values``.  Work O(n), span O(log n)."""
    array = np.asarray(values)
    if array.size == 0:
        raise ValueError("parallel_max of an empty sequence")
    scheduler.charge(int(array.size), ceil_log2(int(array.size)) + 1.0)
    return float(array.max())


def parallel_filter(
    scheduler: Scheduler,
    values: np.ndarray,
    mask: np.ndarray,
) -> np.ndarray:
    """Keep the entries of ``values`` whose ``mask`` entry is truthy.

    ``mask`` must have the same length as ``values``.  Work O(n), span O(log n)
    (a filter is a map plus a prefix sum plus a scatter).
    """
    values = np.asarray(values)
    mask = np.asarray(mask, dtype=bool)
    if values.shape[0] != mask.shape[0]:
        raise ValueError(
            f"values and mask must have equal length, got {values.shape[0]} and {mask.shape[0]}"
        )
    n = int(values.shape[0])
    scheduler.charge(2 * n, 2 * ceil_log2(n) + 1.0)
    return values[mask]


def parallel_pack_indices(scheduler: Scheduler, mask: np.ndarray) -> np.ndarray:
    """Return the indices at which ``mask`` is truthy, in increasing order.

    Work O(n), span O(log n).
    """
    mask = np.asarray(mask, dtype=bool)
    n = int(mask.shape[0])
    scheduler.charge(2 * n, 2 * ceil_log2(n) + 1.0)
    return np.flatnonzero(mask)


def parallel_scan(
    scheduler: Scheduler,
    values: np.ndarray,
    *,
    inclusive: bool = False,
) -> tuple[np.ndarray, float]:
    """Prefix-sum ``values``; returns ``(prefix_array, total)``.

    The exclusive scan (default) returns, at position ``i``, the sum of
    ``values[:i]``.  Work O(n), span O(log n).
    """
    array = np.asarray(values)
    n = int(array.shape[0])
    scheduler.charge(2 * n, 2 * ceil_log2(n) + 1.0)
    if n == 0:
        return np.zeros(0, dtype=array.dtype), 0.0
    running = np.cumsum(array)
    total = float(running[-1])
    if inclusive:
        return running, total
    exclusive = np.empty_like(running)
    exclusive[0] = 0
    exclusive[1:] = running[:-1]
    return exclusive, total


def parallel_map_array(
    scheduler: Scheduler,
    values: np.ndarray,
    fn: Callable[[np.ndarray], np.ndarray],
    *,
    work_per_item: float = 1.0,
) -> np.ndarray:
    """Apply a vectorised elementwise ``fn`` over ``values``.

    Work O(n * work_per_item), span O(log n).
    """
    array = np.asarray(values)
    n = int(array.shape[0])
    scheduler.charge(n * work_per_item, ceil_log2(n) + 1.0)
    return fn(array)


def sorted_unique(values: np.ndarray) -> np.ndarray:
    """Distinct values of ``values`` in ascending order (no scheduler charge).

    One sort and one adjacent compare.  ``np.unique`` without extra outputs
    takes a hash-table path in numpy >= 2.3 that measured 15-20x slower on
    int64 arrays of 10^4-10^5 items, which is what the update path dedupes.
    """
    ordered = np.sort(np.asarray(values))
    distinct = np.ones(ordered.shape[0], dtype=bool)
    distinct[1:] = ordered[1:] != ordered[:-1]
    return ordered[distinct]


def remove_duplicates(scheduler: Scheduler, values: np.ndarray) -> np.ndarray:
    """Return the distinct values of ``values`` (order not specified).

    Implemented with hashing semantics; charged the hash-table bound of
    O(n) work and O(log* n) span from the paper.
    """
    array = np.asarray(values)
    n = int(array.shape[0])
    scheduler.charge(n, LOG_STAR_SPAN)
    return np.unique(array)


def parallel_count(scheduler: Scheduler, mask: np.ndarray) -> int:
    """Count truthy entries of ``mask``.  Work O(n), span O(log n)."""
    mask = np.asarray(mask, dtype=bool)
    n = int(mask.shape[0])
    scheduler.charge(n, ceil_log2(n) + 1.0)
    return int(mask.sum())


def parallel_flatten(
    scheduler: Scheduler,
    chunks: Sequence[np.ndarray],
) -> np.ndarray:
    """Concatenate variable-length chunks into one array.

    Implemented as a scan over chunk lengths followed by parallel copies,
    so the charge is O(total length) work and O(log n) span.
    """
    if not chunks:
        scheduler.charge(1, 1)
        return np.zeros(0, dtype=np.int64)
    total = int(sum(int(np.asarray(chunk).shape[0]) for chunk in chunks))
    scheduler.charge(total + len(chunks), ceil_log2(max(len(chunks), 1)) + 1.0)
    return np.concatenate([np.asarray(chunk) for chunk in chunks]) if total else np.zeros(
        0, dtype=np.asarray(chunks[0]).dtype
    )


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
