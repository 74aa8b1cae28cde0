"""Tests for doubling (galloping) search over non-increasing arrays."""

import numpy as np
import pytest

from repro.core import (
    prefix_length_at_least,
    prefix_lengths_at_least,
)
from repro.parallel import Scheduler


def brute_at_least(keys, threshold):
    count = 0
    for key in keys:
        if key >= threshold:
            count += 1
        else:
            break
    return count


class TestPrefixAtLeast:
    def test_empty_array(self):
        assert prefix_length_at_least(np.array([]), 0.5) == 0

    def test_all_above(self):
        assert prefix_length_at_least(np.array([0.9, 0.8, 0.7]), 0.5) == 3

    def test_none_above(self):
        assert prefix_length_at_least(np.array([0.4, 0.3]), 0.5) == 0

    def test_boundary_inclusive(self):
        assert prefix_length_at_least(np.array([0.9, 0.5, 0.1]), 0.5) == 2

    def test_single_element(self):
        assert prefix_length_at_least(np.array([0.5]), 0.5) == 1
        assert prefix_length_at_least(np.array([0.4]), 0.5) == 0

    @pytest.mark.parametrize("threshold", [0.0, 0.25, 0.5, 0.75, 0.99, 1.0])
    def test_matches_linear_scan_on_random_arrays(self, rng, threshold):
        for _ in range(20):
            keys = np.sort(rng.random(rng.integers(1, 200)))[::-1]
            assert prefix_length_at_least(keys, threshold) == brute_at_least(keys, threshold)

    def test_matches_linear_scan_with_ties(self):
        keys = np.array([0.8, 0.8, 0.8, 0.5, 0.5, 0.2])
        for threshold in (0.9, 0.8, 0.5, 0.2, 0.1):
            assert prefix_length_at_least(keys, threshold) == brute_at_least(keys, threshold)

    def test_integer_keys(self):
        keys = np.array([9, 7, 7, 3, 1])
        assert prefix_length_at_least(keys, 7) == 3
        assert prefix_length_at_least(keys, 8) == 1

    def test_charges_logarithmic_work(self):
        scheduler = Scheduler()
        keys = np.sort(np.random.default_rng(0).random(10_000))[::-1]
        prefix_length_at_least(keys, keys[100], scheduler=scheduler)
        # Work should be on the order of log(answer), far below a linear scan.
        assert scheduler.counter.work < 100

    def test_charges_even_on_empty_prefix(self):
        scheduler = Scheduler()
        prefix_length_at_least(np.array([0.1]), 0.9, scheduler=scheduler)
        assert scheduler.counter.work >= 1


class TestBatchedPrefixAtLeast:
    """The vectorised segmented search must agree with the scalar doubling search."""

    @staticmethod
    def random_segments(rng, num_segments, max_length):
        lengths = rng.integers(0, max_length, size=num_segments)
        segments = [np.sort(rng.random(int(length)))[::-1] for length in lengths]
        keys = np.concatenate(segments) if segments else np.zeros(0)
        starts = np.cumsum(lengths) - lengths
        return keys, starts.astype(np.int64), lengths.astype(np.int64)

    @pytest.mark.parametrize("threshold", [0.0, 0.25, 0.5, 0.9, 1.0])
    def test_matches_scalar_on_random_segments(self, rng, threshold):
        keys, starts, lengths = self.random_segments(rng, 50, 40)
        batched = prefix_lengths_at_least(keys, threshold, starts, lengths)
        for i in range(starts.size):
            segment = keys[starts[i]:starts[i] + lengths[i]]
            assert batched[i] == prefix_length_at_least(segment, threshold)

    def test_with_ties_and_boundaries(self):
        keys = np.array([0.8, 0.8, 0.5, 0.5, 0.2, 1.0, 0.4, 0.4])
        starts = np.array([0, 5, 8])
        lengths = np.array([5, 3, 0])
        for threshold in (0.9, 0.8, 0.5, 0.4, 0.2, 0.1):
            batched = prefix_lengths_at_least(keys, threshold, starts, lengths)
            for i in range(3):
                segment = keys[starts[i]:starts[i] + lengths[i]]
                assert batched[i] == prefix_length_at_least(segment, threshold)

    def test_no_segments(self):
        result = prefix_lengths_at_least(
            np.zeros(0), 0.5, np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
        )
        assert result.shape == (0,)

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(ValueError):
            prefix_lengths_at_least(np.zeros(3), 0.5, np.array([0]), np.array([1, 2]))

    def test_charges_match_scalar_sum(self, rng):
        keys, starts, lengths = self.random_segments(rng, 30, 64)
        batched_scheduler = Scheduler()
        prefix_lengths_at_least(keys, 0.5, starts, lengths, scheduler=batched_scheduler)
        scalar_probe = Scheduler()
        for i in range(starts.size):
            segment = keys[starts[i]:starts[i] + lengths[i]]
            prefix_length_at_least(segment, 0.5, scheduler=scalar_probe)
        # Work adds up across the independent searches exactly as in the
        # scalar loop; the batched span composes max + fork-tree, so it is
        # bounded by the scalar span sum.
        assert batched_scheduler.counter.work == scalar_probe.counter.work
        assert batched_scheduler.counter.span <= scalar_probe.counter.span
