"""Tests for the parallel sorting primitives."""

import numpy as np
import pytest

from repro.parallel import sorting

from repro.parallel import (
    Scheduler,
    charge_segmented_sort,
    comparison_sort_permutation,
    integer_sort_permutation,
    sort_key_triples,
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


def _random_triples(rng, total, bounds):
    return tuple(
        rng.integers(0, bound, total).astype(dtype)
        for bound, dtype in zip(bounds, (np.int64, np.int32, np.int64))
    )


class TestSortKeyTriples:
    @pytest.mark.parametrize("total,bounds", [
        (500, (7, 5, 3)),            # heavy ties
        (3000, (50, 1000, 200)),
        (2000, (1, 1, 2000)),        # one segment, one key: tertiary only
        (800, (300, 1, 4)),          # zero-width middle field
        (1500, (12000, 18686, 107)), # the explore graph's field widths
    ])
    def test_matches_lexsort(self, rng, total, bounds):
        keys = _random_triples(rng, total, bounds)
        order = np.lexsort(keys[::-1])
        secondary, tertiary = sort_key_triples(keys, bounds, stage="test")
        assert secondary.dtype == tertiary.dtype == np.int64
        assert np.array_equal(secondary, keys[1][order])
        assert np.array_equal(tertiary, keys[2][order])

    def test_wide_keys_fall_back_to_the_same_arrays(self, rng, monkeypatch):
        bounds = (1 << 30, 1 << 30, 1 << 10)  # 70 bits: past the budget
        keys = _random_triples(rng, 2000, bounds)
        wide = sort_key_triples(keys, bounds, stage="test")
        order = np.lexsort(keys[::-1])
        assert np.array_equal(wide[0], keys[1][order])
        assert np.array_equal(wide[1], keys[2][order])
        narrow_bounds = (64, 64, 64)
        narrow_keys = _random_triples(rng, 2000, narrow_bounds)
        packed = sort_key_triples(narrow_keys, narrow_bounds, stage="test")
        monkeypatch.setattr(sorting, "CODE_BITS", -1)
        fallback = sort_key_triples(narrow_keys, narrow_bounds, stage="test")
        for a, b in zip(packed, fallback):
            assert a.tobytes() == b.tobytes()

    def test_empty(self):
        empty = np.zeros(0, dtype=np.int64)
        secondary, tertiary = sort_key_triples((empty, empty, empty), (0, 0, 0), stage="test")
        assert secondary.size == tertiary.size == 0

    def test_charges_the_integer_or_comparison_bound(self):
        integer, comparison = Scheduler(), Scheduler()
        charge_segmented_sort(integer, 1 << 14)
        charge_segmented_sort(comparison, 1 << 14, use_integer_sort=False)
        assert integer.counter.work == pytest.approx((1 << 14) * np.log2(14))
        assert comparison.counter.work == pytest.approx((1 << 14) * 15)
