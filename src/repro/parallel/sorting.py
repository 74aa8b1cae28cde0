"""Parallel sorting primitives: comparison sort, integer sort, rank keys.

The paper exploits the observation (Section 4.1.2) that for unweighted graphs
all similarity scores are rationals with polynomially bounded numerators and
denominators, so they can be sorted with an *integer* sort instead of a
comparison sort, shaving a ``log n`` factor off the work of constructing the
neighbor and core orders.  This module provides both sorts, charged with the
bounds quoted in Section 2.3.2:

* comparison sort (Cole's merge sort): ``O(n log n)`` work, ``O(log n)`` span;
* integer sort (Raman): ``O(n log log n)`` work, ``O(log n / log log n)`` span;
* rational sort: the paper rescales each rational ``a/b`` with ``a, b <= r``
  by ``r**2`` and integer-sorts the results; the index build
  (:func:`repro.core.neighbor_order.build_neighbor_order`) replaces the
  rescaling with exact dense ranks of the scores, computed once.
"""

from __future__ import annotations

import math

import numpy as np

from .metrics import ceil_log2
from .scheduler import Scheduler


def _log_log(n: int) -> float:
    """``log2(log2(n))`` clamped below at 1; used for integer-sort charges."""
    if n <= 4:
        return 1.0
    return max(1.0, math.log2(math.log2(n)))


def comparison_sort_permutation(
    scheduler: Scheduler,
    keys: np.ndarray,
    *,
    descending: bool = False,
) -> np.ndarray:
    """Return the permutation that stably sorts ``keys``.

    Charged as a work-efficient parallel comparison sort: ``O(n log n)`` work
    and ``O(log n)`` span.
    """
    keys = np.asarray(keys)
    n = int(keys.shape[0])
    scheduler.charge(n * (ceil_log2(n) + 1.0), 2 * ceil_log2(n) + 1.0)
    if descending:
        # Negate for stable descending order when keys are numeric; fall back
        # to reversing the stable ascending order otherwise.
        if np.issubdtype(keys.dtype, np.number):
            return np.argsort(-keys, kind="stable")
        return np.argsort(keys, kind="stable")[::-1]
    return np.argsort(keys, kind="stable")


def integer_sort_permutation(
    scheduler: Scheduler,
    keys: np.ndarray,
    *,
    descending: bool = False,
) -> np.ndarray:
    """Return the permutation that stably sorts non-negative integer ``keys``.

    Charged with Raman's bound: ``O(n log log n)`` work and
    ``O(log n / log log n)`` span.  Raises ``ValueError`` on negative keys.
    """
    keys = np.asarray(keys)
    if keys.size and np.issubdtype(keys.dtype, np.signedinteger) and int(keys.min()) < 0:
        raise ValueError("integer sort requires non-negative keys")
    n = int(keys.shape[0])
    loglog = _log_log(n)
    scheduler.charge(n * loglog, (ceil_log2(n) / loglog) + 1.0)
    if descending:
        if keys.size == 0:
            return np.zeros(0, dtype=np.int64)
        return np.argsort(keys.max() - keys, kind="stable")
    return np.argsort(keys, kind="stable")


#: Digit width of one radix pass.  numpy's ``kind="stable"`` argsort runs an
#: O(n) radix sort for integer dtypes of at most 16 bits, so chaining stable
#: argsorts over 16-bit digits yields an O(passes * n) sort of arbitrarily
#: wide keys.
RADIX_DIGIT_BITS = 16

#: :func:`packed_argsort` uses the radix chain only when the packed universe
#: fits in this many digit passes.  Each pass costs a whole-array digit
#: extraction, an O(n) radix argsort and a permutation gather; at three or
#: more passes the packed int64 timsort wins back (measured: 2-pass radix
#: beats it up to ~2.5x on hub-heavy segments, 3 passes loses ~0.9x).
RADIX_MAX_PASSES = 2

#: :func:`packed_argsort` also requires ``total**2 <= this * max_segment``.
#: Timsort exploits the segment-run structure of the packed codes (segments
#: are contiguous ascending blocks), so it gains on the radix chain as
#: segments shorten, and the chain's gathers lose cache locality as the
#: total grows.  Neither input predicts the winner alone: the ``NO`` sort
#: of a 929k-entry graph with max segment 106 and of a 943k one with 690
#: both go to argsort (radix 0.67-0.69x), while one of 193k entries with
#: max segment 91 goes to radix (1.28x), and one of 184k with max segment
#: 28 to argsort (0.77x).  Those two bound the constant to [4.1e8, 1.2e9);
#: it sits near their geometric mean.  The ``radix_eligible`` cells of
#: ``benchmarks/bench_strategies.py`` time both sides on each such rung.
RADIX_TOTAL_SQUARED_PER_SEGMENT = 7 * 10**8

#: Below this total the permutation is microseconds either way; skip the
#: digit-array bookkeeping and keep the single argsort call.
RADIX_MIN_TOTAL = 4096


def radix_passes(universe: int) -> int:
    """Number of 16-bit digit passes covering packed codes in ``[0, universe)``."""
    if universe <= 1:
        return 1
    bits = int(universe - 1).bit_length()
    return -(-bits // RADIX_DIGIT_BITS)


def radix_eligible(total: int, universe: int, max_segment: int) -> bool:
    """The measured crossover :func:`packed_argsort` picks its side by.

    One definition shared by the sort itself and the strategy ledger that
    reports on it (``benchmarks/bench_strategies.py``), so the recorded
    pick can never drift from what the build actually runs.
    """
    return (
        total >= RADIX_MIN_TOTAL
        and total * total <= RADIX_TOTAL_SQUARED_PER_SEGMENT * max_segment
        and radix_passes(universe) <= RADIX_MAX_PASSES
    )


def pack_segment_keys(
    segment_offsets: np.ndarray,
    keys: np.ndarray,
    *,
    descending: bool = True,
) -> tuple[np.ndarray, int, int] | None:
    """Single-int64 codes whose ascending stable order is the segmented order.

    The packing behind :func:`segmented_sort_by_key`'s fast path: code =
    ``segment_id * key_span + shifted_key``, with keys negated first when
    ``descending``.  Returns ``(packed, universe, max_segment)`` -- the
    codes, their exclusive upper bound, and the longest segment length (the
    two inputs of the :func:`radix_eligible` crossover) -- or ``None`` when
    the packed universe would overflow the int64 headroom, in which case
    callers fall back to a two-array ``lexsort``.  Benchmarks measure the
    sort strategies on exactly these codes.
    """
    segment_offsets = np.asarray(segment_offsets, dtype=np.int64)
    keys = np.asarray(keys)
    lengths = np.diff(segment_offsets)
    num_segments = int(segment_offsets.shape[0] - 1)
    sort_keys = -keys if descending else keys
    if sort_keys.size == 0:
        return np.zeros(0, dtype=np.int64), 1, 0
    key_low = int(sort_keys.min())
    key_span = int(sort_keys.max()) - key_low + 1
    universe = num_segments * key_span
    if universe > (1 << 62):
        return None
    segment_ids = np.repeat(np.arange(num_segments, dtype=np.int64), lengths)
    packed = segment_ids * np.int64(key_span) + (sort_keys - np.int64(key_low))
    return packed, universe, int(lengths.max(initial=0))


def radix_argsort(packed: np.ndarray, universe: int) -> np.ndarray:
    """Stable ascending permutation of ``packed`` via LSD 16-bit radix passes.

    Equivalent to ``np.argsort(packed, kind="stable")`` for non-negative
    codes below ``universe`` -- a stable sort permutation is uniquely
    determined by the key sequence, so the two are bit-identical by
    construction (property-tested).  Each pass stable-sorts one 16-bit
    digit, low to high; numpy executes those argsorts with its O(n) integer
    radix sort.
    """
    mask = np.int64((1 << RADIX_DIGIT_BITS) - 1)
    perm: np.ndarray | None = None
    for digit_pass in range(radix_passes(universe)):
        shift = np.int64(digit_pass * RADIX_DIGIT_BITS)
        digit = ((packed >> shift) & mask).astype(np.uint16)
        if perm is None:
            perm = np.argsort(digit, kind="stable")
        else:
            perm = perm[np.argsort(digit[perm], kind="stable")]
    return perm


def packed_argsort(
    packed: np.ndarray,
    *,
    universe: int,
    max_segment: int,
) -> np.ndarray:
    """Stable ascending permutation of packed ``(segment, key)`` codes.

    ``packed`` is the single-array encoding ``segment_id * key_span + key``
    produced by :func:`segmented_sort_by_key`: non-negative, below
    ``universe``, with segment blocks contiguous and ascending in input
    order.  Two interchangeable sorts compute the permutation -- one stable
    int64 argsort (timsort) and :func:`radix_argsort` (the paper's Section
    4.1.2 bounded-integer observation rendered as chained 16-bit counting
    passes, O(n) per pass) -- and :func:`radix_eligible` picks by the
    measured crossover: radix wins when segments are long against the
    total (hub-heavy degree distributions, the per-mu core-order lists) and
    the packed universe fits :data:`RADIX_MAX_PASSES` digit passes;
    timsort's galloping wins on short segments of large inputs.  Both
    return bit-identical permutations (stable-sort uniqueness), so the
    choice is purely a wall-clock matter; ``benchmarks/bench_strategies.py``
    times both.
    """
    if radix_eligible(int(packed.shape[0]), universe, max_segment):
        return radix_argsort(packed, universe)
    return np.argsort(packed, kind="stable")


def segmented_sort_by_key(
    scheduler: Scheduler,
    segment_offsets: np.ndarray,
    values: np.ndarray,
    keys: np.ndarray,
    *,
    descending: bool = True,
    use_integer_sort: bool = True,
    executor=None,
) -> np.ndarray:
    """Sort each segment of a CSR-style array independently by its keys.

    ``segment_offsets`` is a length ``s + 1`` array of offsets delimiting the
    segments of ``values``/``keys`` (exactly a CSR index pointer).  The paper
    implements this as a single global sort on (segment id, key) pairs so that
    an integer sort's bounds apply; we charge accordingly and perform the sort
    with a single stable ``lexsort``-style pass.

    When the integer keys pack into one int64 code per entry, the permutation
    runs through :func:`packed_argsort`, which picks between the stable
    argsort and the radix digit chain by the measured crossover.
    ``executor`` -- a
    :class:`~repro.parallel.execute.ParallelExecutor` -- shards the packed
    permutation across real worker processes along segment boundaries; the
    sharded result is bit-identical to the serial one because packed codes of
    earlier segments are strictly smaller than those of later segments, so
    the global stable sort is exactly the concatenation of the per-shard
    stable sorts.

    Returns the values reordered within each segment; segment boundaries are
    unchanged.
    """
    segment_offsets = np.asarray(segment_offsets, dtype=np.int64)
    values = np.asarray(values)
    keys = np.asarray(keys)
    if values.shape[0] != keys.shape[0]:
        raise ValueError("values and keys must have equal length")
    total = int(values.shape[0])
    if segment_offsets.size == 0 or segment_offsets[-1] != total:
        raise ValueError("segment_offsets must end at len(values)")

    num_segments = int(segment_offsets.shape[0] - 1)

    if use_integer_sort:
        loglog = _log_log(max(total, 2))
        scheduler.charge(total * loglog, (ceil_log2(total) / loglog) + 1.0)
    else:
        scheduler.charge(total * (ceil_log2(total) + 1.0), 2 * ceil_log2(total) + 1.0)

    if total == 0:
        return values.copy()

    # Stable sort by (segment, key): primary key is the segment id so segments
    # stay contiguous; the secondary key orders within the segment.  When the
    # key range allows it, the pair is packed into a single int64 so one
    # stable permutation pass replaces the two-array lexsort (~2x faster on
    # the hot index-construction path); ties resolve identically because
    # equal packed keys are exactly equal (segment, key) pairs and every
    # strategy is stable.
    if np.issubdtype(keys.dtype, np.integer):
        packing = pack_segment_keys(segment_offsets, keys, descending=descending)
        if packing is not None:
            packed, universe, max_segment = packing
            if executor is not None:
                order = executor.segmented_argsort(
                    packed, segment_offsets, universe=universe, max_segment=max_segment
                )
            else:
                order = packed_argsort(
                    packed, universe=universe, max_segment=max_segment
                )
            return values[order]
    sort_keys = -keys if descending else keys
    lengths = np.diff(segment_offsets)
    segment_ids = np.repeat(np.arange(num_segments, dtype=np.int64), lengths)
    order = np.lexsort((sort_keys, segment_ids))
    return values[order]
