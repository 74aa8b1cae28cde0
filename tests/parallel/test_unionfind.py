"""Tests for the union-find forest used by clustering queries."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.parallel import Scheduler, UnionFind
from repro.parallel.metrics import ceil_log2


@pytest.fixture
def s():
    return Scheduler()


def partition(forest):
    """The forest's sets as a sorted list of sorted vertex lists, via ``find``."""
    sets = {}
    for x in range(len(forest)):
        sets.setdefault(forest.find(x), []).append(x)
    return sorted(sets.values())


class TestBasics:
    def test_initially_all_singletons(self):
        forest = UnionFind(5)
        assert len(forest) == 5
        assert all(forest.find(i) == i for i in range(5))

    def test_union_merges(self):
        forest = UnionFind(4)
        assert forest.union(0, 1) is True
        assert forest.connected(0, 1)
        assert partition(forest) == [[0, 1], [2], [3]]

    def test_union_of_same_set_returns_false(self):
        forest = UnionFind(3)
        forest.union(0, 1)
        assert forest.union(1, 0) is False
        assert partition(forest) == [[0, 1], [2]]

    def test_transitive_connectivity(self):
        forest = UnionFind(5)
        forest.union(0, 1)
        forest.union(1, 2)
        forest.union(3, 4)
        assert forest.connected(0, 2)
        assert not forest.connected(2, 3)

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            UnionFind(-1)

    def test_zero_elements(self, s):
        forest = UnionFind(0)
        assert len(forest) == 0 and partition(forest) == []
        assert forest.find_batch(s, np.zeros(0, dtype=np.int64)).size == 0


class TestBatches:
    def test_connect(self, s):
        forest = UnionFind(6)
        roots = forest.connect(s, np.array([0, 2, 4]), np.array([1, 3, 5]), np.arange(6))
        assert roots.tolist() == [0, 0, 2, 2, 4, 4]
        assert forest.find_batch(s, np.arange(6)).tolist() == [0, 0, 2, 2, 4, 4]
        assert partition(forest) == [[0, 1], [2, 3], [4, 5]]

    def test_connect_length_mismatch(self, s):
        forest = UnionFind(3)
        with pytest.raises(ValueError):
            forest.connect(s, np.array([0]), np.array([1, 2]), np.arange(3))

    def test_find_batch(self, s):
        forest = UnionFind(4)
        forest.union(0, 1)
        roots = forest.find_batch(s, np.array([0, 1, 2, 3]))
        assert roots[0] == roots[1]
        assert roots[2] != roots[0]

    def test_connect_labels_partition(self, s):
        forest = UnionFind(7)
        labels = forest.connect(s, np.array([0, 1, 4]), np.array([1, 2, 5]), np.arange(7))
        assert labels[0] == labels[1] == labels[2]
        assert labels[4] == labels[5]
        assert labels[3] not in (labels[0], labels[4])

    def test_matches_reference_components(self, s, rng):
        n = 200
        edges = rng.integers(0, n, size=(300, 2))
        forest = UnionFind(n)
        ours = forest.connect(s, edges[:, 0], edges[:, 1], np.arange(n))
        # Reference: iterative label propagation until fixpoint.
        labels = np.arange(n)
        changed = True
        while changed:
            changed = False
            for u, v in edges:
                low = min(labels[u], labels[v])
                if labels[u] != low or labels[v] != low:
                    labels[u] = labels[v] = low
                    changed = True
        # Propagating the minimum makes the reference labels minimum ids too.
        assert np.array_equal(ours, labels)

    def test_empty_batch_charges_like_union_and_find(self, s):
        empty = np.zeros(0, dtype=np.int64)
        roots = UnionFind(3).connect(s, empty, empty, empty)
        assert roots.size == 0
        assert (s.counter.work, s.counter.span) == (0, 2.0)


@st.composite
def connect_inputs(draw):
    """An edge list in source-grouped or shuffled order, optionally split into
    an earlier batch (already merged into the forest) and a later one."""
    n = draw(st.integers(1, 40))
    vertex = st.integers(0, n - 1)
    edges = np.array(draw(st.lists(st.tuples(vertex, vertex), max_size=80)), dtype=np.int64)
    edges = edges.reshape(-1, 2)
    if draw(st.booleans()):
        edges = edges[np.argsort(edges[:, 0], kind="stable")]
    else:
        edges = edges[np.array(draw(st.permutations(range(len(edges)))), dtype=np.int64)]
    earlier = draw(st.integers(0, len(edges))) if draw(st.booleans()) else 0
    extra = np.array(draw(st.lists(vertex, max_size=5)), dtype=np.int64)
    return n, edges, earlier, extra


def _scalar_roots(n, edges):
    """Roots of every vertex after scalar union/find over ``edges``."""
    forest = UnionFind(n)
    for u, v in edges.tolist():
        forest.union(u, v)
    return np.array([forest.find(x) for x in range(n)], dtype=np.int64)


class TestConnectProperties:
    @settings(max_examples=200, deadline=None)
    @given(connect_inputs())
    def test_connect_matches_scalar_reference(self, inputs):
        n, edges, earlier, extra = inputs
        forest = UnionFind(n)
        first_u, first_v = edges[:earlier, 0], edges[:earlier, 1]
        first_vertices = np.unique(np.concatenate([first_u, first_v]))
        if earlier:
            # The sweep's incremental case: a forest earlier batches merged.
            forest.connect(Scheduler(), first_u, first_v, first_vertices)
        edges_u, edges_v = edges[earlier:, 0], edges[earlier:, 1]
        vertices = np.unique(np.concatenate([edges_u, edges_v, first_vertices, extra]))
        scheduler = Scheduler()

        roots = forest.connect(scheduler, edges_u, edges_v, vertices)

        # Same partition as the scalar reference ...
        reference = _scalar_roots(n, edges)[vertices]
        assert np.array_equal(
            roots[:, None] == roots[None, :], reference[:, None] == reference[None, :]
        )
        # ... and every representative is its component's minimum id.
        minimum = np.full(n, n)
        np.minimum.at(minimum, reference, vertices)
        assert np.array_equal(roots, minimum[reference])
        # Exactly the union batch plus find batch charges.
        num_edges, num_vertices = int(edges_u.size), int(vertices.size)
        assert scheduler.counter.work == num_edges + num_vertices
        assert scheduler.counter.span == (
            ceil_log2(num_edges) + 1.0 + ceil_log2(num_vertices) + 1.0
        )
