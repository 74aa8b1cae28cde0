"""Property tests for the serving loop: bit-identity under randomized streams.

The serving session layers three optimisations over the cold query path --
compact answers, ε-snapped cache keys, and LRU-cached payloads -- and each
must be invisible in the answers.  These tests replay randomized
``(μ, ε)`` request streams (with deliberate repeats and ε values perturbed
inside one snapping interval, under a cache small enough to force evictions)
and require every served answer to be bit-identical to a cold
``ScanIndex.query``, in both border modes.  A second property pins the
generation contract: rebuilding the index and re-binding the session must
never surface a cached answer from the old index.
"""

import numpy as np
import pytest

from repro import ScanIndex
from repro.core.query import cluster_compact
from repro.graphs import planted_partition
from repro.parallel import Scheduler


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

    A hit *within* one session's generation is legitimate (distinct ε values
    may share a snapped rank); what must never happen is a hit on an entry
    another generation cached -- so the first request of every fresh
    generation must miss, and every answer must match that session's own
    index cold.
    """
    from repro.serve import ResultCache

    cache_pressure = [(2, float(e)) for e in np.linspace(0.05, 0.95, 6)]
    graph_a = planted_partition(3, 20, p_intra=0.5, p_inter=0.05, seed=1)
    graph_b = planted_partition(3, 20, p_intra=0.5, p_inter=0.05, seed=2)
    index_a = ScanIndex.build(graph_a)
    index_b = ScanIndex.build(graph_b)
    shared = ResultCache(capacity=4)

    session_a = index_a.session(cache=shared)
    answers_a = {
        pair: session_a.serve(*pair).to_clustering().labels
        for pair in cache_pressure
    }
    # The "reload": a different index bound to the very same cache object.
    session_b = index_b.session(cache=shared)
    for position, pair in enumerate(cache_pressure):
        served = session_b.serve(*pair)
        if position == 0:
            assert not served.from_cache   # can never hit another generation
        cold = index_b.query(*pair)
        assert np.array_equal(served.to_clustering().labels, cold.labels)
    # And the old session, invalidated, recomputes rather than resurrecting.
    session_a.invalidate()
    for position, pair in enumerate(cache_pressure):
        served = session_a.serve(*pair)
        if position == 0:
            assert not served.from_cache
        assert np.array_equal(served.to_clustering().labels, answers_a[pair])
