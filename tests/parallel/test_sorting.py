"""Tests for the parallel sorting primitives."""

import numpy as np
import pytest

from repro.parallel import sorting

from repro.parallel import (
    Scheduler,
    packed_argsort,
    comparison_sort_permutation,
    integer_sort_permutation,
    segmented_sort_by_key,
)


@pytest.fixture
def s():
    return Scheduler()


class TestComparisonSort:
    def test_ascending(self, s):
        keys = np.array([3.0, 1.0, 2.0])
        order = comparison_sort_permutation(s, keys)
        assert keys[order].tolist() == [1.0, 2.0, 3.0]

    def test_descending(self, s):
        keys = np.array([3.0, 1.0, 2.0])
        order = comparison_sort_permutation(s, keys, descending=True)
        assert keys[order].tolist() == [3.0, 2.0, 1.0]

    def test_stability_on_ties(self, s):
        keys = np.array([1.0, 2.0, 1.0, 2.0])
        order = comparison_sort_permutation(s, keys)
        assert order.tolist() == [0, 2, 1, 3]

    def test_charges_n_log_n_work(self, s):
        comparison_sort_permutation(s, np.arange(1024, dtype=np.float64))
        assert s.counter.work == pytest.approx(1024 * 11)

    def test_empty(self, s):
        assert comparison_sort_permutation(s, np.array([])).size == 0


class TestIntegerSort:
    def test_ascending(self, s):
        keys = np.array([5, 0, 3, 3], dtype=np.int64)
        order = integer_sort_permutation(s, keys)
        assert keys[order].tolist() == [0, 3, 3, 5]

    def test_descending(self, s):
        keys = np.array([5, 0, 3], dtype=np.int64)
        order = integer_sort_permutation(s, keys, descending=True)
        assert keys[order].tolist() == [5, 3, 0]

    def test_rejects_negative_keys(self, s):
        with pytest.raises(ValueError):
            integer_sort_permutation(s, np.array([1, -2, 3]))

    def test_cheaper_than_comparison_sort(self):
        keys = np.arange(1 << 14, dtype=np.int64)
        s_int, s_cmp = Scheduler(), Scheduler()
        integer_sort_permutation(s_int, keys)
        comparison_sort_permutation(s_cmp, keys.astype(np.float64))
        assert s_int.counter.work < s_cmp.counter.work

    def test_matches_comparison_sort_result(self, s, rng):
        keys = rng.integers(0, 1000, size=500)
        a = integer_sort_permutation(s, keys)
        b = comparison_sort_permutation(s, keys.astype(np.float64))
        assert np.array_equal(keys[a], keys[b])


class TestSegmentedSort:
    def test_sorts_each_segment_independently(self, s):
        offsets = np.array([0, 3, 5])
        values = np.array([10, 11, 12, 13, 14])
        keys = np.array([1.0, 3.0, 2.0, 0.5, 0.9])
        out = segmented_sort_by_key(s, offsets, values, keys, descending=True,
                                    use_integer_sort=False)
        assert out.tolist() == [11, 12, 10, 14, 13]

    def test_ascending(self, s):
        offsets = np.array([0, 2, 4])
        values = np.array([1, 2, 3, 4])
        keys = np.array([5.0, 1.0, 0.0, 7.0])
        out = segmented_sort_by_key(s, offsets, values, keys, descending=False,
                                    use_integer_sort=False)
        assert out.tolist() == [2, 1, 3, 4]

    def test_segments_unchanged_in_size(self, s, rng):
        lengths = rng.integers(0, 10, size=20)
        offsets = np.zeros(21, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        total = int(offsets[-1])
        values = rng.integers(0, 1000, size=total)
        keys = rng.random(total)
        out = segmented_sort_by_key(s, offsets, values, keys)
        for i in range(20):
            a, b = int(offsets[i]), int(offsets[i + 1])
            assert sorted(out[a:b].tolist()) == sorted(values[a:b].tolist())

    def test_empty_input(self, s):
        out = segmented_sort_by_key(s, np.array([0]), np.array([], dtype=np.int64),
                                    np.array([], dtype=np.float64))
        assert out.size == 0

    def test_bad_offsets(self, s):
        with pytest.raises(ValueError):
            segmented_sort_by_key(s, np.array([0, 2]), np.arange(3), np.arange(3))

    def test_length_mismatch(self, s):
        with pytest.raises(ValueError):
            segmented_sort_by_key(s, np.array([0, 2]), np.arange(2), np.arange(3))


class TestPackedArgsort:
    """The radix fast path must be indistinguishable from the stable argsort."""

    def _random_packed(self, rng, num_segments, total, key_span):
        lengths = rng.multinomial(total, np.ones(num_segments) / num_segments)
        segment_ids = np.repeat(np.arange(num_segments, dtype=np.int64), lengths)
        keys = rng.integers(0, key_span, total).astype(np.int64)
        return segment_ids * np.int64(key_span) + keys, num_segments * key_span

    @pytest.mark.parametrize("num_segments,total,key_span", [
        (7, 200, 5),          # heavy ties
        (50, 3000, 1000),     # one digit pass
        (300, 5000, 200_000), # two digit passes
        (3, 4000, 1 << 21),   # long segments, wide keys
        (1, 500, 64),         # single segment
    ])
    def test_radix_matches_argsort(self, rng, num_segments, total, key_span):
        packed, universe = self._random_packed(rng, num_segments, total, key_span)
        max_segment = total  # irrelevant to forced strategies
        via_radix = packed_argsort(
            packed, universe=universe, max_segment=max_segment, strategy="radix"
        )
        via_argsort = packed_argsort(
            packed, universe=universe, max_segment=max_segment, strategy="argsort"
        )
        assert np.array_equal(via_radix, via_argsort)

    def test_auto_picks_radix_only_when_eligible(self):
        packed = np.arange(sorting.RADIX_MIN_TOTAL, dtype=np.int64)
        # Long segments + small universe: eligible.
        assert sorting.radix_passes(1 << 16) == 1
        assert sorting.radix_passes(1 << 32) == 2
        assert sorting.radix_passes((1 << 32) + 1) == 3
        # Every auto decision must still return the stable permutation.
        for max_segment in (1, sorting.RADIX_MIN_MAX_SEGMENT):
            order = packed_argsort(
                packed, universe=packed.shape[0], max_segment=max_segment
            )
            assert np.array_equal(order, np.arange(packed.shape[0]))

    def test_empty_and_unknown_strategy(self):
        empty = np.zeros(0, dtype=np.int64)
        assert packed_argsort(empty, universe=1, max_segment=0).size == 0
        with pytest.raises(ValueError, match="unknown sort strategy"):
            packed_argsort(empty, universe=1, max_segment=0, strategy="bogus")

    def test_segmented_sort_strategy_knob(self, s, rng):
        offsets = np.array([0, 4, 4, 9, 16], dtype=np.int64)
        values = np.arange(16, dtype=np.int64)
        keys = rng.integers(0, 5, 16).astype(np.int64)
        expected = segmented_sort_by_key(s, offsets, values, keys)
        for strategy in ("radix", "argsort", "auto"):
            result = segmented_sort_by_key(
                s, offsets, values, keys, sort_strategy=strategy
            )
            assert np.array_equal(result, expected)
