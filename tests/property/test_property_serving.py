"""Property tests for the serving loop: bit-identity under randomized streams.

The serving session layers three optimisations over the cold query path --
compact answers, ε-snapped cache keys, and LRU-cached payloads -- and each
must be invisible in the answers.  These tests replay randomized
``(μ, ε)`` request streams (with deliberate repeats and ε values perturbed
inside one snapping interval, under a cache small enough to force evictions)
and require every served answer to be bit-identical to a cold
``ScanIndex.query``, in both border modes.  A second property pins the
generation contract: rebuilding the index and re-binding the session must
never surface a cached answer from the old index.  A third property pins the
stored ε boundary table to the snapper it replaced: on fresh, LSH, patched
and legacy-loaded indexes it is the sorted distinct union of both orders'
stored values, and ranks and snaps agree with that union's.
"""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import ApproximationConfig, ScanIndex
from repro.core.query import cluster_compact
from repro.graphs import planted_partition
from repro.parallel import Scheduler
from repro.serve import EpsilonSnapper

FIXTURES = Path(__file__).parents[1] / "storage" / "fixtures"


@pytest.fixture(scope="module")
def index():
    graph = planted_partition(4, 25, p_intra=0.45, p_inter=0.03, seed=23)
    return ScanIndex.build(graph)


def random_stream(rng, index, count):
    """Random (mu, epsilon) requests biased toward repeats and near-misses."""
    snapper_values = np.unique(index.neighbor_order.similarities)
    requests = []
    for _ in range(count):
        mu = int(rng.integers(2, index.graph.max_degree + 3))
        kind = rng.integers(0, 3)
        if kind == 0:
            epsilon = float(rng.uniform(0.0, 1.0))
        elif kind == 1:
            # Exactly a stored boundary: ties must snap up to themselves.
            epsilon = float(rng.choice(snapper_values))
        else:
            # Just below a boundary: must share the boundary's cache entry.
            epsilon = float(
                max(0.0, rng.choice(snapper_values) - rng.uniform(0, 1e-9))
            )
        requests.append((mu, min(epsilon, 1.0)))
    # Interleave near-term repeats so hits survive a small LRU capacity.
    stream = []
    for position, request in enumerate(requests):
        stream.append(request)
        if position >= 2 and rng.random() < 0.5:
            stream.append(requests[position - int(rng.integers(0, 3))])
    return stream


@pytest.mark.parametrize("deterministic", [False, True])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_served_stream_is_bit_identical_to_cold_queries(index, deterministic, seed):
    rng = np.random.default_rng(seed)
    session = index.session(cache_size=8)   # small: force evictions mid-stream
    stream = random_stream(rng, index, 36)
    hits = 0
    for mu, epsilon in stream:
        served = session.serve(mu, epsilon, deterministic_borders=deterministic)
        hits += int(served.from_cache)
        dense = served.to_clustering()
        cold = index.query(mu, epsilon, deterministic_borders=deterministic)
        assert np.array_equal(dense.labels, cold.labels), (mu, epsilon)
        assert np.array_equal(dense.core_mask, cold.core_mask), (mu, epsilon)
        assert dense.mu == mu and dense.epsilon == epsilon
    assert hits > 0                          # the stream did exercise the cache
    assert session.cache.evictions > 0       # ... and the LRU bound


@pytest.mark.parametrize("deterministic", [False, True])
def test_session_query_many_stream_identical(index, deterministic):
    rng = np.random.default_rng(7)
    session = index.session()
    uncached = index.session(cache_size=0)
    pairs = [
        (int(rng.integers(2, 12)), float(rng.choice(np.linspace(0.0, 1.0, 9))))
        for _ in range(25)
    ]
    # Duplicates, and ε values that snap together onto one stored boundary.
    boundary = float(np.median(np.unique(index.neighbor_order.similarities)))
    below = float(np.nextafter(boundary, 0.0))
    pairs += [pairs[0], (3, boundary), (3, below), (3, boundary), (3, below)]
    for _ in range(3):                       # repeats are answered from the cache
        batched = session.query_many(pairs, deterministic_borders=deterministic)
        planned = uncached.query_many(pairs, deterministic_borders=deterministic)
        for (mu, epsilon), clustering, plain in zip(pairs, batched, planned):
            cold = index.query(mu, epsilon, deterministic_borders=deterministic)
            for result in (clustering, plain):
                assert np.array_equal(result.labels, cold.labels), (mu, epsilon)
                assert np.array_equal(result.core_mask, cold.core_mask), (mu, epsilon)
                assert result.mu == mu and result.epsilon == epsilon
    # The sweep cached the planner's answers as they are: each equals the
    # per-pair compact query field by field and is read-only.
    for mu, epsilon in pairs:
        served = session.serve(mu, epsilon, deterministic_borders=deterministic)
        assert served.from_cache
        single = cluster_compact(
            index.neighbor_order,
            index.core_order,
            mu,
            epsilon,
            scheduler=Scheduler(),
            deterministic_borders=deterministic,
        )
        cached = served.compact
        assert np.array_equal(cached.vertices, single.vertices), (mu, epsilon)
        assert np.array_equal(cached.labels, single.labels), (mu, epsilon)
        assert cached.num_cores == single.num_cores
        assert cached.num_clusters == single.num_clusters
        for answer in (cached, single):
            assert not answer.vertices.flags.writeable
            assert not answer.labels.flags.writeable


def test_cache_never_serves_a_stale_index_generation():
    """Same (mu, epsilon) keys against a changed index must recompute.

    A hit *within* one epoch is legitimate (distinct ε values may share a
    snapped rank); what must never happen is a hit on an entry cached
    before the index changed -- so after one session invalidates, the first
    request of *every* session over the index must miss, and every answer
    must match the new contents cold.
    """
    cache_pressure = [(2, float(e)) for e in np.linspace(0.05, 0.95, 6)]
    graph_a = planted_partition(3, 20, p_intra=0.5, p_inter=0.05, seed=1)
    graph_b = planted_partition(3, 20, p_intra=0.5, p_inter=0.05, seed=2)
    index = ScanIndex.build(graph_a)
    index_b = ScanIndex.build(graph_b)
    sessions = [index.session(cache_size=4), index.session(cache_size=4)]
    for session in sessions:
        for pair in cache_pressure:
            session.serve(*pair)
    # The "reload": new contents swapped into the very same index object.
    index.graph = index_b.graph
    index.similarities = index_b.similarities
    index.neighbor_order = index_b.neighbor_order
    index.core_order = index_b.core_order
    index.epsilon_boundaries = index_b.epsilon_boundaries
    sessions[0].invalidate()
    for session in sessions:
        for position, pair in enumerate(cache_pressure):
            served = session.serve(*pair)
            if position == 0:
                assert not served.from_cache   # can never hit the old contents
            cold = index_b.query(*pair)
            assert np.array_equal(served.to_clustering().labels, cold.labels)


def assert_table_is_the_old_snapper(index, probes):
    """The stored table equals ``unique(NO ∪ CO)``; rank and snap agree with it."""
    oracle = np.unique(np.concatenate([
        np.asarray(index.neighbor_order.similarities, dtype=np.float64),
        np.asarray(index.core_order.thresholds, dtype=np.float64),
    ]))
    table = np.asarray(index.epsilon_boundaries)
    assert table.dtype == np.float64 and table.tobytes() == oracle.tobytes()
    epsilons = np.concatenate([
        oracle,
        np.nextafter(oracle, -np.inf),
        np.nextafter(oracle, np.inf),
        np.asarray(probes, dtype=np.float64),
    ])
    snapper = EpsilonSnapper.from_index(index)
    for epsilon in epsilons.tolist():
        rank = int(np.searchsorted(oracle, epsilon, side="left"))
        assert snapper.rank(epsilon) == rank, epsilon
        expected = float(oracle[rank]) if rank < oracle.shape[0] else float("inf")
        assert snapper.snap(epsilon) == expected, epsilon


def _graph(seed):
    return planted_partition(3, 10, p_intra=0.5, p_inter=0.08, seed=seed)


def _random_batch(rng, graph):
    edges = set(zip(*[a.tolist() for a in graph.edge_list()]))
    ordered = sorted(edges)
    picked = rng.choice(len(ordered), size=min(3, len(ordered)), replace=False)
    deletions = [ordered[i] for i in picked]
    insertions = []
    while len(insertions) < 3:
        u, v = sorted(rng.integers(0, graph.num_vertices, size=2).tolist())
        if u != v and (u, v) not in edges and (u, v) not in insertions:
            insertions.append((u, v))
    return insertions, deletions


probe_epsilons = st.lists(st.floats(0.0, 1.0), max_size=12)
table_settings = settings(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@table_settings
@given(seed=st.integers(0, 2**16), measure=st.sampled_from(["cosine", "jaccard", "dice"]),
       integer_sort=st.booleans(), probes=probe_epsilons)
def test_fresh_build_table_is_the_old_snapper(seed, measure, integer_sort, probes):
    index = ScanIndex.build(_graph(seed), measure=measure, use_integer_sort=integer_sort)
    assert_table_is_the_old_snapper(index, probes)


@table_settings
@given(seed=st.integers(0, 2**16), measure=st.sampled_from(["cosine", "jaccard"]),
       probes=probe_epsilons)
def test_lsh_build_table_is_the_old_snapper(seed, measure, probes):
    config = ApproximationConfig(
        measure=measure, num_samples=8, seed=seed, degree_threshold=2
    )
    index = ScanIndex.build(_graph(seed), measure=measure, approximate=config)
    assert_table_is_the_old_snapper(index, probes)


@table_settings
@given(seed=st.integers(0, 2**16), batches=st.integers(1, 3), probes=probe_epsilons)
def test_patched_table_is_the_old_snapper(seed, batches, probes):
    rng = np.random.default_rng(seed)
    index = ScanIndex.build(_graph(seed))
    for _ in range(batches):
        insertions, deletions = _random_batch(rng, index.graph)
        index.apply_updates(insertions=insertions, deletions=deletions)
        assert_table_is_the_old_snapper(index, probes)


@pytest.mark.parametrize("version", ["v3", "v4"])
@table_settings
@given(probes=probe_epsilons)
def test_reloaded_legacy_table_is_the_old_snapper(version, probes):
    index = ScanIndex.load(FIXTURES / version / "artifact")
    assert_table_is_the_old_snapper(index, probes)
