"""Doubling (galloping) search over non-increasing key arrays.

Both index queries in the paper lean on doubling search to stay
work-efficient: the cores for parameter μ are a *prefix* of ``CO[μ]`` and the
ε-similar neighbors of a vertex are a *prefix* of ``NO[v]``, because both are
sorted by non-increasing similarity.  A binary search would cost ``O(log n)``
per probe regardless of the answer, which adds up to an ``O(n log n)`` term;
doubling search costs ``O(log j)`` where ``j`` is the length of the returned
prefix, which is what keeps the query work proportional to the output size
(Theorem 4.3).  :func:`prefix_lengths_at_least` runs every segment's search
at once as fixed-width numpy rounds and charges each segment the scalar
doubling search's cost for the prefix it found.
"""

from __future__ import annotations

import numpy as np

from ..parallel.metrics import ceil_log2, ceil_log2_array
from ..parallel.scheduler import Scheduler


def prefix_length_at_least(
    keys: np.ndarray,
    threshold: float,
    *,
    scheduler: Scheduler | None = None,
) -> int:
    """Length of the prefix of ``keys`` whose entries are ``>= threshold``.

    ``keys`` must be sorted in non-increasing order (this is asserted only in
    debug-level tests, not at runtime, to keep the query path lean).  Charges
    ``O(log j)`` work where ``j`` is the returned prefix length.
    """
    keys = np.asarray(keys)
    n = int(keys.shape[0])
    if n == 0 or keys[0] < threshold:
        if scheduler is not None:
            scheduler.charge(1, 1)
        return 0

    # Doubling phase: find the first probe position whose key drops below the
    # threshold; the answer then lies in (bound/2, bound].
    bound = 1
    while bound < n and keys[bound] >= threshold:
        bound <<= 1
    low = bound >> 1          # keys[low] >= threshold
    high = min(bound, n - 1)  # first candidate position that may fail

    # Binary search within (low, high] for the first failing position.
    if keys[high] >= threshold:
        result = high + 1
    else:
        left, right = low, high  # keys[left] >= threshold > keys[right]
        while right - left > 1:
            middle = (left + right) // 2
            if keys[middle] >= threshold:
                left = middle
            else:
                right = middle
        result = right

    if scheduler is not None:
        scheduler.charge(2 * (ceil_log2(max(result, 1)) + 1.0), ceil_log2(max(result, 1)) + 1.0)
    return result


def prefix_lengths_at_least(
    keys: np.ndarray,
    threshold: float | np.ndarray,
    starts: np.ndarray,
    lengths: np.ndarray,
    *,
    scheduler: Scheduler | None = None,
) -> np.ndarray:
    """Per-segment prefix lengths with entries ``>= threshold``, batched.

    The vectorised counterpart of :func:`prefix_length_at_least`: ``keys``
    holds many non-increasing segments, ``starts[i]``/``lengths[i]`` delimit
    segment ``i``, and the result is the prefix length of every segment.
    ``threshold`` is a scalar applied to every segment or an array with one
    threshold per segment (segments may overlap, e.g. many thresholds probed
    against one shared array).  All segments are searched *simultaneously*
    by a branchless count-halving search: the Python loop below runs a fixed
    ``ceil(log2(max_length))`` rounds, each one probe per segment, never one
    iteration per segment -- which is what removes the per-core interpreter
    loop from the query path -- and no round gathers or scatters a subset
    of still-active segments.  The search itself is a binary search; the
    doubling search's ``O(log j)`` cost is what is *charged*, computed from
    the results.

    The charges match the scalar searches exactly: segments whose first key
    already fails charge ``(1, 1)``; the rest charge ``2 (log2(j) + 1)`` work
    and ``log2(j) + 1`` span for a result of ``j``, composed as one parallel
    batch (work adds up, span is the maximum search plus the fork-tree depth
    over the segments).
    """
    keys = np.asarray(keys)
    starts = np.asarray(starts, dtype=np.int64)
    lengths = np.asarray(lengths, dtype=np.int64)
    if starts.shape != lengths.shape:
        raise ValueError("starts and lengths must have equal shape")
    num_segments = int(starts.shape[0])
    if num_segments == 0:
        return np.zeros(0, dtype=np.int64)
    threshold = np.broadcast_to(np.asarray(threshold), (num_segments,))

    # Count-halving search for the first failing position of every segment
    # at once: the answer stays in [low, low + count], a probe at
    # low + half either moves low there (it passes) or keeps it, and count
    # shrinks by half, so ceil(log2(longest)) rounds leave every count at
    # most 1.  Every round probes every segment -- finished ones (half == 0)
    # probe low itself and move nowhere -- so no round gathers or scatters
    # an active subset.
    low = starts.copy()
    count = lengths.copy()
    half = np.empty_like(count)
    middle = np.empty_like(low)
    passes = np.empty(num_segments, dtype=bool)
    for _ in range(int(ceil_log2(int(lengths.max())))):
        np.right_shift(count, 1, out=half)
        np.add(low, half, out=middle)
        # A finished segment's probe may sit one past the last key; clip it.
        np.greater_equal(keys.take(middle, mode="clip"), threshold, out=passes)
        np.copyto(low, middle, where=passes)
        count -= half
    # Where one candidate is left (count 1), the answer lies past it exactly
    # when it passes.
    last = np.flatnonzero(count)
    low[last] += keys[low[last]] >= threshold[last]
    results = low - starts

    if scheduler is not None:
        charge_prefix_searches(scheduler, results)
    return results


def charge_prefix_searches(scheduler: Scheduler, results: np.ndarray) -> None:
    """Charge one parallel batch of doubling searches that found ``results``.

    Segments whose first key already fails (result 0) charge ``(1, 1)``;
    the rest charge ``2 (log2(j) + 1)`` work and ``log2(j) + 1`` span for a
    result of ``j``.  Work adds up; span is the longest search plus the
    fork-tree depth over the segments.  An empty batch charges nothing.
    """
    num_segments = int(results.shape[0])
    if num_segments == 0:
        return
    # A segment's first key passes exactly when its prefix is non-empty.
    first_passes = results > 0
    num_failed_immediately = num_segments - int(np.count_nonzero(first_passes))
    work = float(num_failed_immediately)
    max_span = 1.0 if num_failed_immediately else 0.0
    if num_failed_immediately < num_segments:
        search_spans = ceil_log2_array(results[first_passes]) + 1.0
        work += float(np.sum(2.0 * search_spans))
        max_span = max(max_span, float(np.max(search_spans)))
    scheduler.charge(work, max_span + ceil_log2(max(num_segments, 1)) + 1.0)
