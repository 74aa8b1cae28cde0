"""Tests for the ε-snapping layer."""

import numpy as np
import pytest

from repro import ScanIndex
from repro.graphs import paper_example_graph, planted_partition
from repro.serve import EpsilonSnapper


@pytest.fixture(scope="module")
def index():
    return ScanIndex.build(paper_example_graph())


@pytest.fixture(scope="module")
def snapper(index):
    return EpsilonSnapper.from_index(index)


class TestBoundaries:
    def test_boundaries_are_sorted_and_distinct(self, snapper):
        boundaries = snapper.boundaries
        assert np.all(np.diff(boundaries) > 0)
        assert snapper.num_boundaries == boundaries.shape[0]

    def test_boundaries_are_frozen(self, snapper):
        with pytest.raises(ValueError):
            snapper.boundaries[0] = 0.5

    def test_boundaries_cover_both_orders(self, index, snapper):
        stored = set(np.unique(index.neighbor_order.similarities).tolist())
        stored |= set(np.unique(index.core_order.thresholds).tolist())
        assert set(snapper.boundaries.tolist()) == stored


class TestSnapContract:
    def test_snap_is_smallest_stored_value_at_least_epsilon(self, snapper):
        for epsilon in np.linspace(0.0, 1.0, 47):
            snapped = snapper.snap(float(epsilon))
            above = snapper.boundaries[snapper.boundaries >= epsilon]
            if above.size:
                assert snapped == above[0]
            else:
                assert snapped == float("inf")

    def test_stored_value_snaps_to_itself(self, snapper):
        for value in snapper.boundaries.tolist():
            assert snapper.snap(value) == value

    def test_rank_counts_values_strictly_below(self, snapper):
        boundaries = snapper.boundaries
        assert snapper.rank(0.0) == 0
        assert snapper.rank(float(boundaries[0])) == 0
        assert snapper.rank(float(boundaries[-1])) == boundaries.shape[0] - 1
        above_all = float(boundaries[-1]) + 1e-9
        assert snapper.rank(above_all) == boundaries.shape[0]
        assert snapper.snap(above_all) == float("inf")

    def test_same_rank_means_same_clustering(self, index, snapper):
        """The snapping contract: equal ranks give bit-identical queries."""
        rng = np.random.default_rng(3)
        epsilons = rng.uniform(0.0, 1.0, size=40)
        for epsilon in epsilons.tolist():
            snapped = snapper.snap(epsilon)
            if snapped == float("inf"):
                snapped = 1.0  # query upper bound; matches nothing either way
            for mu in (2, 3, 5):
                original = index.query(mu, epsilon)
                canonical = index.query(mu, snapped)
                assert np.array_equal(original.labels, canonical.labels)
                assert np.array_equal(original.core_mask, canonical.core_mask)


class TestLargerGraph:
    def test_ranks_partition_the_unit_interval(self):
        graph = planted_partition(3, 15, p_intra=0.5, p_inter=0.05, seed=5)
        snapper = EpsilonSnapper.from_index(ScanIndex.build(graph))
        boundaries = snapper.boundaries
        # Each boundary is the canonical representative of its own rank ...
        assert [snapper.rank(float(b)) for b in boundaries] == list(
            range(snapper.num_boundaries)
        )
        # ... and any ε strictly inside an interval snaps up to its top.
        midpoints = (boundaries[:-1] + boundaries[1:]) / 2.0
        for position, epsilon in enumerate(midpoints.tolist()):
            assert snapper.rank(epsilon) == position + 1
            assert snapper.snap(epsilon) == boundaries[position + 1]
