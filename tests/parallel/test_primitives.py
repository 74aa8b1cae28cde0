"""Tests for the segmented array primitives, against per-segment Python loops."""

import bisect

import numpy as np
import pytest

from repro.parallel.primitives import (
    segmented_arange,
    segmented_ranges,
    segmented_searchsorted,
    sorted_unique,
)


def _random_counts(rng, size=40, high=7):
    """Segment lengths with a good share of zero-length segments."""
    counts = rng.integers(0, high, size=size)
    counts[rng.random(size) < 0.3] = 0
    return counts


def _sorted_segments(rng, counts):
    """A CSR-style ``(values, starts, ends)`` whose segments are each sorted."""
    values = np.concatenate(
        [np.sort(rng.integers(0, 50, size=int(count))) for count in counts]
        + [np.zeros(0, dtype=np.int64)]
    )
    ends = np.cumsum(counts)
    return values, ends - counts, ends


class TestSegmentedArange:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_loop(self, seed):
        counts = _random_counts(np.random.default_rng(seed))
        expected = [k for count in counts for k in range(count)]
        out = segmented_arange(counts)
        assert out.dtype == np.int64
        assert out.tolist() == expected

    @pytest.mark.parametrize("counts", [[0, 0, 0], []])
    def test_no_items(self, counts):
        out = segmented_arange(np.array(counts, dtype=np.int64))
        assert out.dtype == np.int64 and out.size == 0


class TestSegmentedRanges:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_loop(self, seed):
        rng = np.random.default_rng(seed)
        counts = _random_counts(rng)
        starts = rng.integers(0, 1000, size=counts.size)
        expected = [
            k for start, count in zip(starts, counts) for k in range(start, start + count)
        ]
        out = segmented_ranges(starts, counts)
        assert out.dtype == np.int64
        assert out.tolist() == expected

    @pytest.mark.parametrize("counts", [[0, 0, 0], []])
    def test_no_items(self, counts):
        counts = np.array(counts, dtype=np.int64)
        out = segmented_ranges(np.arange(counts.size) * 10, counts)
        assert out.dtype == np.int64 and out.size == 0


class TestSegmentedSearchsorted:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_loop(self, seed):
        rng = np.random.default_rng(seed)
        counts = _random_counts(rng, high=12)
        values, starts, ends = _sorted_segments(rng, counts)
        # Queries span below, inside and past every segment's values.
        queries = rng.integers(-5, 60, size=counts.size)
        expected = [
            bisect.bisect_left(values.tolist(), int(q), int(lo), int(hi))
            for q, lo, hi in zip(queries, starts, ends)
        ]
        assert segmented_searchsorted(values, queries, starts, ends).tolist() == expected

    def test_query_past_segment_end_returns_end(self):
        values = np.array([1, 3, 5, 0, 2, 4])
        starts = np.array([0, 3, 3])
        ends = np.array([3, 6, 3])
        queries = np.array([9, 7, 100])
        out = segmented_searchsorted(values, queries, starts, ends)
        assert out.tolist() == ends.tolist()

    def test_does_not_modify_bounds(self):
        values = np.array([1, 2, 3])
        starts = np.array([0])
        ends = np.array([3])
        segmented_searchsorted(values, np.array([2]), starts, ends)
        assert starts.tolist() == [0] and ends.tolist() == [3]

    @pytest.mark.parametrize(
        "queries, starts, ends",
        [([1, 2], [0], [3]), ([1], [0, 0], [3]), ([1], [0], [3, 3])],
    )
    def test_shape_mismatch(self, queries, starts, ends):
        with pytest.raises(ValueError):
            segmented_searchsorted(
                np.array([1, 2, 3]), np.array(queries), np.array(starts), np.array(ends)
            )


class TestSortedUnique:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_loop(self, seed):
        values = np.random.default_rng(seed).integers(-20, 20, size=200)
        assert sorted_unique(values).tolist() == sorted(set(values.tolist()))

    def test_empty(self):
        out = sorted_unique(np.zeros(0, dtype=np.int64))
        assert out.size == 0 and out.dtype == np.int64

    def test_int32_keeps_dtype(self):
        out = sorted_unique(np.array([7, 3, 7, 1, 3], dtype=np.int32))
        assert out.dtype == np.int32
        assert out.tolist() == [1, 3, 7]
