"""Quality scores against plain-Python oracles (hypothesis).

Modularity and coverage are checked against per-cluster sums over edges and
vertices; the adjusted and plain Rand indices against O(n²) pair counts.
Labels are arbitrary int64 ids: non-contiguous, larger than ``n``, negative
other than ``UNCLUSTERED``, all unclustered and all in one cluster.  Edge
weights are dyadic fractions, so every weight sum is exact in any order and
coverage can be compared exactly; modularity (divisions and squares) is
compared within 1e-12.
"""

from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import UNCLUSTERED
from repro.graphs import from_edge_list
from repro.quality import adjusted_rand_index, coverage, modularity, rand_index

oracle_settings = settings(max_examples=150, deadline=None)

LABEL_POOL = [UNCLUSTERED, UNCLUSTERED, -9, -2, 0, 3, 7, 40, 1000, 10**6]
WEIGHTS = [0.25, 0.5, 1.0, 1.5, 2.0, 3.0]


@st.composite
def weighted_graphs(draw):
    """``(graph, edges)`` with ``edges`` a ``{(u, v): weight}`` dict, ``u < v``.

    The last two vertices are a pendant (attached to vertex 0) and an
    isolated vertex; the weight is ``1.0`` throughout on unweighted graphs.
    """
    core = draw(st.integers(1, 10))
    candidates = list(combinations(range(core), 2))
    pairs = [(0, core)]
    if candidates:
        pairs += draw(st.lists(st.sampled_from(candidates), unique=True, max_size=30))
    weighted = draw(st.booleans())
    weights = [draw(st.sampled_from(WEIGHTS)) if weighted else 1.0 for _ in pairs]
    graph = from_edge_list(
        pairs, num_vertices=core + 2, weights=weights if weighted else None
    )
    return graph, dict(zip(pairs, weights))


def labellings(num_vertices):
    one_cluster = st.sampled_from(LABEL_POOL[2:]).map(lambda c: [c] * num_vertices)
    return st.one_of(
        st.lists(st.sampled_from(LABEL_POOL), min_size=num_vertices, max_size=num_vertices),
        st.just([UNCLUSTERED] * num_vertices),
        one_cluster,
    )


def cluster_keys(labels):
    """Cluster key of every vertex; an unclustered vertex is its own singleton."""
    return [("singleton", v) if label == UNCLUSTERED else label for v, label in enumerate(labels)]


def oracle_modularity(num_vertices, edges, labels):
    total = sum(edges.values())
    keys = cluster_keys(labels)
    degree = [0.0] * num_vertices
    for (u, v), weight in edges.items():
        degree[u] += weight
        degree[v] += weight
    internal, volume = {}, {}
    for (u, v), weight in edges.items():
        if keys[u] == keys[v]:
            internal[keys[u]] = internal.get(keys[u], 0.0) + weight
    for v, key in enumerate(keys):
        volume[key] = volume.get(key, 0.0) + degree[v]
    return sum(
        internal.get(key, 0.0) / total - (volume[key] / (2.0 * total)) ** 2
        for key in volume
    )


def oracle_coverage(edges, labels):
    inside = sum(
        weight for (u, v), weight in edges.items()
        if labels[u] != UNCLUSTERED and labels[u] == labels[v]
    )
    return inside / sum(edges.values())


def pair_counts(labels_a, labels_b):
    """``(together in a, together in b, together in both, agreements)`` over all pairs."""
    keys_a, keys_b = cluster_keys(labels_a), cluster_keys(labels_b)
    in_a = in_b = in_both = agree = 0
    for i, j in combinations(range(len(labels_a)), 2):
        same_a, same_b = keys_a[i] == keys_a[j], keys_b[i] == keys_b[j]
        in_a += same_a
        in_b += same_b
        in_both += same_a and same_b
        agree += same_a == same_b
    return in_a, in_b, in_both, agree


def oracle_ari(labels_a, labels_b):
    n = len(labels_a)
    if n == 0:
        return 1.0
    in_a, in_b, in_both, _ = pair_counts(labels_a, labels_b)
    total = n * (n - 1) / 2.0
    expected = float(in_a) * float(in_b) / total if total else 0.0
    denominator = (in_a + in_b) / 2.0 - expected
    if denominator == 0.0:
        return 1.0
    return (in_both - expected) / denominator


def oracle_rand(labels_a, labels_b):
    n = len(labels_a)
    if n < 2:
        return 1.0
    return pair_counts(labels_a, labels_b)[3] / (n * (n - 1) / 2.0)


@oracle_settings
@given(st.data())
def test_modularity_and_coverage_match_oracles(data):
    graph, edges = data.draw(weighted_graphs())
    labels = data.draw(labellings(graph.num_vertices))
    array = np.asarray(labels, dtype=np.int64)
    expected = oracle_modularity(graph.num_vertices, edges, labels)
    assert modularity(graph, array) == pytest.approx(expected, abs=1e-12)
    assert coverage(graph, array) == oracle_coverage(edges, labels)


@oracle_settings
@given(st.data())
def test_rand_indices_match_pair_count_oracles(data):
    num_vertices = data.draw(st.integers(0, 14))
    labels_a = data.draw(labellings(num_vertices))
    labels_b = data.draw(labellings(num_vertices))
    array_a = np.asarray(labels_a, dtype=np.int64)
    array_b = np.asarray(labels_b, dtype=np.int64)
    assert adjusted_rand_index(array_a, array_b) == oracle_ari(labels_a, labels_b)
    assert rand_index(array_a, array_b) == oracle_rand(labels_a, labels_b)
