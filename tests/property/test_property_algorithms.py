"""Property-based tests for sorting, doubling search, similarities and queries."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import ScanIndex
from repro.baselines import scan_clustering
from repro.core.clustering import UNCLUSTERED
from repro.core import prefix_length_at_least
from repro.core.sweep_query import query_many
from repro.graphs import from_edge_list, planted_partition
from repro.parallel import (
    Scheduler,
    sorting,
    comparison_sort_permutation,
    integer_sort_permutation,
    sort_key_triples,
)
from repro.quality import adjusted_rand_index, modularity
from repro.similarity import compute_similarities, edge_similarity_reference

settings.register_profile("repro-algorithms", max_examples=30, deadline=None)
settings.load_profile("repro-algorithms")


# ----------------------------------------------------------------------
# Sorting
# ----------------------------------------------------------------------
@given(st.lists(st.floats(0, 1, allow_nan=False), max_size=200))
def test_comparison_sort_matches_python_sorted(values):
    keys = np.array(values, dtype=np.float64)
    order = comparison_sort_permutation(Scheduler(), keys)
    assert keys[order].tolist() == sorted(values)


@given(st.lists(st.integers(0, 10_000), max_size=200))
def test_integer_sort_matches_python_sorted(values):
    keys = np.array(values, dtype=np.int64)
    order = integer_sort_permutation(Scheduler(), keys)
    assert keys[order].tolist() == sorted(values)


@given(
    st.lists(st.tuples(st.integers(0, 40), st.integers(0, 6), st.integers(0, 3000)),
             max_size=200),
    st.booleans(),
)
def test_sort_key_triples_matches_python_sorted(triples, packs):
    bounds = (41, 7, 3001)
    keys = tuple(np.array([t[i] for t in triples], dtype=np.int64) for i in range(3))
    saved = sorting.CODE_BITS
    sorting.CODE_BITS = saved if packs else -1  # -1 forces the lexsort fallback
    try:
        secondary, tertiary = sort_key_triples(keys, bounds, stage="test")
    finally:
        sorting.CODE_BITS = saved
    expected = sorted(triples)
    assert secondary.tolist() == [t[1] for t in expected]
    assert tertiary.tolist() == [t[2] for t in expected]


# ----------------------------------------------------------------------
# Doubling search
# ----------------------------------------------------------------------
@given(
    st.lists(st.floats(0, 1, allow_nan=False), max_size=100),
    st.floats(0, 1, allow_nan=False),
)
def test_doubling_search_equals_linear_count(values, threshold):
    keys = np.sort(np.array(values, dtype=np.float64))[::-1]
    expected = int(np.count_nonzero(keys >= threshold))
    assert prefix_length_at_least(keys, threshold) == expected


# ----------------------------------------------------------------------
# Similarities
# ----------------------------------------------------------------------
edge_lists = st.lists(
    st.tuples(st.integers(0, 15), st.integers(0, 15)), min_size=1, max_size=60
)


@given(edge_lists)
def test_similarities_in_unit_interval_and_match_reference(edges):
    graph = from_edge_list(edges, num_vertices=16)
    if graph.num_edges == 0:
        return
    similarities = compute_similarities(graph)
    assert float(similarities.values.min()) >= 0.0
    assert float(similarities.values.max()) <= 1.0 + 1e-9
    edge_u, edge_v = graph.edge_list()
    for edge in range(graph.num_edges):
        u, v = int(edge_u[edge]), int(edge_v[edge])
        assert abs(
            similarities.values[edge] - edge_similarity_reference(graph, u, v)
        ) < 1e-9


@given(edge_lists)
def test_hash_and_merge_backends_agree(edges):
    graph = from_edge_list(edges, num_vertices=16)
    if graph.num_edges == 0:
        return
    merge = compute_similarities(graph, backend="merge")
    hashed = compute_similarities(graph, backend="hash")
    assert np.allclose(merge.values, hashed.values)


# ----------------------------------------------------------------------
# Index queries vs. original SCAN
# ----------------------------------------------------------------------
@st.composite
def bridged_cliques(draw):
    """Two cliques and one vertex adjacent to some members of each.

    Random edge lists rarely give a border vertex two candidate clusters;
    here the bridge is one whenever it is not a core itself, and equal
    attachment counts make its similarities tie exactly.  Vertex ids are
    shuffled so the lower-id tie rule is exercised in both directions.
    """
    sizes = draw(st.tuples(st.integers(3, 7), st.integers(3, 7)))
    offsets = (0, sizes[0])
    bridge = sum(sizes)
    edges = []
    for size, offset in zip(sizes, offsets):
        edges += [(offset + i, offset + j) for i in range(size) for j in range(i + 1, size)]
        attached = draw(st.integers(1, 3))
        edges += [(bridge, offset + i) for i in range(attached)]
    vertex = st.integers(0, bridge)
    edges += draw(st.lists(st.tuples(vertex, vertex), max_size=3))
    ids = draw(st.permutations(range(bridge + 1)))
    return from_edge_list([(ids[u], ids[v]) for u, v in edges], num_vertices=bridge + 1)


graphs = st.one_of(
    edge_lists.map(lambda edges: from_edge_list(edges, num_vertices=16)),
    bridged_cliques(),
)


@settings(max_examples=100)
@given(graphs, st.data(), st.booleans())
def test_index_query_cores_match_scan(graph, data, deterministic):
    """Whole clusterings of a planned batch against original SCAN, in both border modes.

    The batch holds 1-6 settings, often sharing an ε, so the planner's
    cross-pair sharing (one arc gather per ε, one union-find forest per ε
    group) meets the independent oracle as well as its one-pair batch does.
    SCAN and the index agree on the cores, on the core partition (up to
    relabelling) and on which vertices are clustered; border vertices may
    differ only in which ε-similar core cluster they join, so each border's
    label must come from such a core -- in deterministic mode the most
    similar one, ties to the lower core id.
    """
    if graph.num_edges == 0:
        return
    index = ScanIndex.build(graph)
    # Often ε sits exactly on a stored similarity, where borders gain and
    # lose candidate cores.
    stored = np.unique(np.minimum(index.similarities.values, 1.0)).tolist()
    settings_drawn = []
    for _ in range(data.draw(st.integers(1, 6))):
        fresh = st.one_of(st.floats(0.05, 0.95), st.sampled_from(stored))
        drawn = [epsilon for _, epsilon in settings_drawn]
        epsilon = data.draw(
            st.one_of(fresh, st.sampled_from(drawn)) if drawn else fresh
        )
        settings_drawn.append((data.draw(st.integers(2, 8)), epsilon))
    arc_similarities = index.similarities.arc_values()
    batch = index.query_many(settings_drawn, deterministic_borders=deterministic)
    for (mu, epsilon), ours in zip(settings_drawn, batch):
        reference = scan_clustering(graph, mu, epsilon, similarities=index.similarities)
        assert np.array_equal(ours.core_mask, reference.core_mask)
        cores = np.flatnonzero(ours.core_mask)
        # Core partition up to relabelling: a bijection between the label sets.
        pairs = set(zip(ours.labels[cores].tolist(), reference.labels[cores].tolist()))
        assert len({a for a, _ in pairs}) == len(pairs) == len({b for _, b in pairs})
        assert np.array_equal(
            ours.labels != UNCLUSTERED, reference.labels != UNCLUSTERED
        )

        borders = np.flatnonzero((ours.labels != UNCLUSTERED) & ~ours.core_mask)
        for border in borders.tolist():
            start, end = graph.arc_range(border)
            neighbors = graph.indices[start:end]
            similar = arc_similarities[start:end]
            similar_cores = ours.core_mask[neighbors] & (similar >= epsilon)
            candidates = neighbors[similar_cores]
            assert candidates.size
            if deterministic:
                # Most similar core first, ties to the lower core id.
                best = np.lexsort((candidates, -similar[similar_cores]))[0]
                assert ours.labels[border] == ours.labels[candidates[best]]
            else:
                assert ours.labels[border] in ours.labels[candidates]


def reference_compact(index, mu, epsilon, deterministic):
    """The compact answer of ``(mu, epsilon)``, walked scalar by scalar.

    Cores are the ``CO[mu]`` prefix with threshold >= ε, in that order; each
    core's ε-prefix of ``NO`` is walked in neighbor order.  A core's label is
    the minimum core id of its ε-connected component.  A border joins the
    core of its first arc in that walk (first writer wins), or in
    deterministic mode the most similar core, ties to the lower id.
    Borders follow the cores in ascending id order.
    """
    co, no = index.core_order, index.neighbor_order
    cores = []
    if mu <= co.max_mu:
        for position in range(int(co.indptr[mu]), int(co.indptr[mu + 1])):
            if co.thresholds[position] < epsilon:
                break
            cores.append(int(co.vertices[position]))
    is_core = set(cores)
    label = {core: core for core in cores}

    def find(vertex):
        while label[vertex] != vertex:
            vertex = label[vertex]
        return vertex

    owner, best = {}, {}
    for core in cores:
        for position in range(int(no.indptr[core]), int(no.indptr[core + 1])):
            similarity = float(no.similarities[position])
            if similarity < epsilon:
                break
            neighbor = int(no.neighbors[position])
            if neighbor in is_core:
                low, high = sorted((find(core), find(neighbor)))
                label[high] = low
            elif neighbor not in owner or (
                deterministic and (-similarity, core) < (-best[neighbor], owner[neighbor])
            ):
                owner[neighbor], best[neighbor] = core, similarity
    borders = sorted(owner)
    labels = [find(core) for core in cores] + [find(owner[v]) for v in borders]
    return cores + borders, labels


@settings(max_examples=100)
@given(graphs, st.data(), st.booleans())
def test_border_attachment_matches_scalar_walk_exactly(graph, data, deterministic):
    """Every label of a one-pair batch and of a shared-ε multi-pair batch
    equals the scalar walk's, in both border modes -- including which core
    cluster each first-writer border joins."""
    if graph.num_edges == 0:
        return
    index = ScanIndex.build(graph)
    stored = np.unique(np.minimum(index.similarities.values, 1.0)).tolist()
    epsilon = data.draw(st.one_of(st.floats(0.05, 0.95), st.sampled_from(stored)))
    mus = data.draw(st.lists(st.integers(2, 8), min_size=2, max_size=5))
    pairs = [(mu, epsilon) for mu in mus]
    batch = query_many(
        index.neighbor_order, index.core_order, pairs,
        deterministic_borders=deterministic,
    )
    for pair, shared in zip(pairs, batch):
        (single,) = query_many(
            index.neighbor_order, index.core_order, [pair],
            deterministic_borders=deterministic,
        )
        vertices, labels = reference_compact(index, *pair, deterministic)
        for answer in (single, shared):
            assert answer.vertices.tolist() == vertices
            assert answer.labels.tolist() == labels


def tied_bridge():
    """Two 5-cliques and a bridge adjacent to vertex 4 of one and 5 of the other.

    The bridge's two similarities tie exactly (2 / sqrt(3 * 6)), so at
    ``(4, 0.45)`` it is a border whose candidates 4 and 5 lie in different
    clusters, and the deterministic rule must pick the lower id.
    """
    cliques = [(o + i, o + j) for o in (0, 5) for i in range(5) for j in range(i + 1, 5)]
    return from_edge_list(cliques + [(10, 4), (10, 5)], num_vertices=11)


@pytest.mark.parametrize("deterministic", [False, True])
@pytest.mark.parametrize("shape", ["communities", "tied-bridge"])
def test_border_attachment_matches_scalar_walk_on_fixed_graphs(shape, deterministic):
    """The same exact oracle, over a whole shared-ε grid per ε, where the
    random graphs rarely reach: planted communities, whose borders often
    have candidate cores in several clusters and whose cores' ``CO[mu]``
    orders differ from μ to μ, and an exact cross-cluster tie."""
    if shape == "communities":
        graph = planted_partition(4, 25, p_intra=0.45, p_inter=0.04, seed=11)
        index = ScanIndex.build(graph)
        epsilons = np.quantile(index.similarities.values, [0.3, 0.5, 0.7, 0.85]).tolist()
    else:
        index = ScanIndex.build(tied_bridge())
        epsilons = np.unique(index.similarities.values).tolist() + [0.45]
    pairs = [(mu, epsilon) for epsilon in epsilons for mu in (2, 3, 4, 5, 8, 13)]
    batch = query_many(
        index.neighbor_order, index.core_order, pairs,
        deterministic_borders=deterministic,
    )
    for pair, shared in zip(pairs, batch):
        (single,) = query_many(
            index.neighbor_order, index.core_order, [pair],
            deterministic_borders=deterministic,
        )
        vertices, labels = reference_compact(index, *pair, deterministic)
        for answer in (single, shared):
            assert answer.vertices.tolist() == vertices
            assert answer.labels.tolist() == labels
    if shape == "tied-bridge" and deterministic:
        (answer,) = query_many(
            index.neighbor_order, index.core_order, [(4, 0.45)],
            deterministic_borders=True,
        )
        assert answer.vertices.tolist()[-1] == 10 and answer.labels.tolist()[-1] == 0


def seeded_graph(seed, weighted):
    """Up to 60 random edges on 16 vertices, optionally weighted.

    Denser on average than ``edge_lists`` draws, so a border's best core
    often changes from one ε to the next.
    """
    rng = np.random.default_rng(seed)
    edges = rng.integers(0, 16, size=(int(rng.integers(1, 61)), 2))
    graph = from_edge_list(edges, num_vertices=16)
    if not weighted:
        return graph
    edge_u, edge_v = graph.edge_list()
    return from_edge_list(
        np.column_stack([edge_u, edge_v]), num_vertices=16,
        weights=rng.uniform(0.2, 3.0, size=edge_u.shape[0]),
    )


@settings(max_examples=60)
@given(st.builds(seeded_graph, st.integers(0, 2**32 - 1), st.booleans()), st.booleans())
def test_whole_grid_matches_scalar_walk(graph, deterministic):
    """Every μ against every stored similarity (and 0 and 1) as one batch.

    Each μ is one chain walked in descending ε, whose forest, gathered
    prefixes and border table grow step by step: a border's best core can
    change when a later step adds a core, and a vertex that was a border can
    become a core.  Every label must still equal the scalar walk's.
    """
    if graph.num_edges == 0:
        return
    index = ScanIndex.build(graph)
    epsilons = np.unique(np.minimum(index.similarities.values, 1.0)).tolist() + [0.0, 1.0]
    pairs = [(mu, eps) for mu in range(2, index.core_order.max_mu + 2) for eps in epsilons]
    batch = query_many(
        index.neighbor_order, index.core_order, pairs,
        deterministic_borders=deterministic,
    )
    for pair, answer in zip(pairs, batch):
        vertices, labels = reference_compact(index, *pair, deterministic)
        assert answer.vertices.tolist() == vertices, pair
        assert answer.labels.tolist() == labels, pair


# ----------------------------------------------------------------------
# Quality measures
# ----------------------------------------------------------------------
@given(
    edge_lists,
    st.lists(st.integers(-1, 4), min_size=16, max_size=16),
)
def test_modularity_bounded_above_by_one(edges, labels):
    graph = from_edge_list(edges, num_vertices=16)
    if graph.num_edges == 0:
        return
    assert modularity(graph, np.array(labels, dtype=np.int64)) <= 1.0 + 1e-9


@given(
    st.lists(st.integers(0, 5), min_size=2, max_size=80),
    st.lists(st.integers(0, 5), min_size=2, max_size=80),
)
def test_ari_symmetric_and_reflexive(a, b):
    size = min(len(a), len(b))
    labels_a = np.array(a[:size], dtype=np.int64)
    labels_b = np.array(b[:size], dtype=np.int64)
    assert adjusted_rand_index(labels_a, labels_a.copy()) == 1.0
    assert adjusted_rand_index(labels_a, labels_b) == adjusted_rand_index(labels_b, labels_a)
