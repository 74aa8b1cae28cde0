"""Property tests for concurrent serving: many sessions, one mmapped artifact.

The serving tier's correctness story is that concurrency is *invisible in
the answers*: N workers each holding a :class:`ClusterSession` over their
own mmap of one saved artifact must answer exactly what a single serial
session answers, whatever the interleaving, and a mid-traffic
``apply_updates`` must invalidate every one of them at once -- no session,
however its requests interleave with the mutation, may serve a
pre-mutation answer afterwards.  These tests replay randomized streams
through M in-process sessions (the same object workers hold; the socket
tier adds transport, not semantics) and check both properties, plus the
O(cores) cluster-count shortcut against the sorting definition.
"""

import numpy as np
import pytest

from repro import ScanIndex
from repro.graphs import planted_partition


@pytest.fixture(scope="module")
def artifact_path(tmp_path_factory):
    graph = planted_partition(4, 22, p_intra=0.40, p_inter=0.03, seed=31)
    path = tmp_path_factory.mktemp("concurrent") / "index.scanidx"
    ScanIndex.build(graph).save(path)
    return path


def random_stream(rng, max_degree, count):
    """Random (mu, epsilon) requests biased toward repeats."""
    settings = [
        (int(rng.integers(2, max_degree + 3)), float(rng.uniform(0.0, 1.0)))
        for _ in range(max(count // 3, 1))
    ]
    return [settings[int(rng.integers(0, len(settings)))] for _ in range(count)]


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("num_sessions", [2, 4])
def test_interleaved_sessions_match_serial(artifact_path, num_sessions, seed):
    """M sessions over one mmap, arbitrarily interleaved == one serial session."""
    rng = np.random.default_rng(seed)
    shared = ScanIndex.load(artifact_path)
    sessions = [shared.session(cache_size=8) for _ in range(num_sessions)]
    serial = ScanIndex.load(artifact_path).session(cache_size=8)

    stream = random_stream(rng, shared.graph.max_degree, 60)
    for position, (mu, epsilon) in enumerate(stream):
        # The interleaving is random, not round-robin: any session may take
        # any request, which is what concurrent workers look like.
        session = sessions[int(rng.integers(0, num_sessions))]
        served = session.serve(mu, epsilon)
        reference = serial.serve(mu, epsilon)
        assert np.array_equal(served.vertices, reference.vertices), position
        assert np.array_equal(served.labels, reference.labels), position
        assert served.num_cores == reference.num_cores
        assert served.num_clusters == reference.num_clusters
        assert served.snapped_epsilon == reference.snapped_epsilon


@pytest.mark.parametrize("seed", [3, 4])
def test_mid_traffic_update_invalidates_every_session(artifact_path, seed):
    """After apply_updates, no session serves a pre-mutation answer."""
    rng = np.random.default_rng(seed)
    shared = ScanIndex.load(artifact_path)
    sessions = [shared.session(cache_size=16) for _ in range(3)]
    stream = random_stream(rng, shared.graph.max_degree, 24)

    # Warm every session's cache on pre-update traffic.
    for position, (mu, epsilon) in enumerate(stream):
        sessions[position % len(sessions)].serve(mu, epsilon)

    edge_u, edge_v = shared.graph.edge_list()
    pick = int(rng.integers(0, edge_u.shape[0]))
    shared.apply_updates(deletions=[(int(edge_u[pick]), int(edge_v[pick]))])

    # Every post-update serve, on every session, must be computed fresh and
    # match a cold post-update query -- cached pre-update entries included.
    for mu, epsilon in stream:
        cold = shared.query(mu, epsilon)
        for session in sessions:
            served = session.serve(mu, epsilon)
            dense = served.to_clustering()
            assert np.array_equal(dense.labels, cold.labels)
            assert np.array_equal(dense.core_mask, cold.core_mask)


@pytest.mark.parametrize("seed", [5, 6])
def test_num_clusters_shortcut_matches_sorting_definition(artifact_path, seed):
    """The O(cores) representative count equals np.unique over the labels."""
    rng = np.random.default_rng(seed)
    session = ScanIndex.load(artifact_path).session(cache_size=0)
    for mu, epsilon in random_stream(rng, session.index.graph.max_degree, 30):
        served = session.serve(mu, epsilon)
        if served.num_clustered_vertices:
            assert served.num_clusters == np.unique(served.labels).shape[0]
        else:
            assert served.num_clusters == 0
