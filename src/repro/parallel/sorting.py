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

Both order builders run their segmented sort through :func:`sort_key_triples`:
(segment, rank, tie-break) triples packed into one int64 code each and
ordered by a single ``np.sort``, charged by :func:`charge_segmented_sort`.
"""

from __future__ import annotations

import math

import numpy as np

from .. import obs
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


#: Bit budget of one packed sort code.  :func:`sort_key_triples` packs its
#: three keys into a single non-negative int64 when their field widths sum
#: to at most this; wider inputs take one stable three-key ``np.lexsort``.
CODE_BITS = 63


def charge_segmented_sort(
    scheduler: Scheduler, total: int, *, use_integer_sort: bool = True
) -> None:
    """Charge one global sort of ``total`` (segment, key) entries.

    The paper sorts every segment at once as one sort of (segment id, key)
    pairs, so an integer sort's bounds apply to the whole batch: Raman's
    ``O(n log log n)`` work and ``O(log n / log log n)`` span, or a
    comparison sort's ``O(n log n)`` work and ``O(log n)`` span when
    ``use_integer_sort`` is off.
    """
    if use_integer_sort:
        loglog = _log_log(max(total, 2))
        scheduler.charge(total * loglog, (ceil_log2(total) / loglog) + 1.0)
    else:
        scheduler.charge(total * (ceil_log2(total) + 1.0), 2 * ceil_log2(total) + 1.0)


def field_widths(bounds) -> list[int]:
    """Bits of each packed field: the width of its largest key, ``bound - 1``."""
    return [max(int(bound) - 1, 0).bit_length() for bound in bounds]


def sort_key_triples(
    keys: tuple[np.ndarray, np.ndarray, np.ndarray],
    bounds: tuple[int, int, int],
    *,
    stage: str,
) -> tuple[np.ndarray, np.ndarray]:
    """Sort entries by three non-negative integer keys; return the last two.

    ``keys`` is ``(primary, secondary, tertiary)``, aligned arrays with
    ``0 <= keys[i] < bounds[i]``.  Returns the secondary and tertiary keys
    (int64) in ascending ``(primary, secondary, tertiary)`` order.  Both
    order builders make every triple unique, so the tertiary key fixes each
    tie and the result names every entry without a permutation.

    While the three field widths fit :data:`CODE_BITS`, the keys pack into
    one int64 code ``primary | secondary | tertiary`` and a single
    ``np.sort`` orders them; past that, one stable ``np.lexsort`` over the
    three keys returns the same arrays (sorted values do not depend on the
    sort's stability).  The packing runs under the span ``{stage}.pack``;
    the sort and the field reads under ``{stage}.sort``.
    """
    primary, secondary, tertiary = keys
    widths = field_widths(bounds)
    packs = sum(widths) <= CODE_BITS
    with obs.span(f"{stage}.pack"):
        if packs:
            codes = np.left_shift(primary, widths[1] + widths[2], dtype=np.int64)
            codes |= np.left_shift(secondary, widths[2], dtype=np.int64)
            codes |= tertiary
    with obs.span(f"{stage}.sort"):
        if not packs:
            order = np.lexsort((tertiary, secondary, primary))
            return (
                secondary[order].astype(np.int64, copy=False),
                tertiary[order].astype(np.int64, copy=False),
            )
        codes.sort()
        low_mask = np.int64((1 << widths[2]) - 1)
        tertiary_sorted = codes & low_mask
        codes >>= widths[2]
        codes &= np.int64((1 << widths[1]) - 1)
        return codes, tertiary_sorted
