"""Property tests for the dynamic-update subsystem.

Three properties over randomized mixed insert/delete streams:

1. **Bit-identity under evolution.**  After every batch of a random stream,
   the patched index's stored columns equal a from-scratch rebuild on the
   current edge set, and so do its clusterings for a random parameter
   grid.  This is the subsystem's tentpole invariant -- if
   any merge position, similarity recompute, numerator delta or edge-id
   shift is off by one anywhere, some batch of some stream breaks it.  The
   dense streams run once per order-repair strategy, each forced through
   ``ORDER_REBUILD_CHURN``: on 60-vertex graphs every batch is past the
   churn crossover, so only forcing reaches the merge.

2. **The merge path is reached unforced.**  On sparse, larger graphs, 1-4-op
   batches stay under the crossover, so ``apply_updates`` picks the merge
   itself; the streams mix random batches with scripted edge cases
   (isolating a vertex, wiring an isolated vertex, growing and shrinking
   the largest degree, hence ``max_mu``).

3. **No generation mixing across updates.**  A serving session that stays
   open while its index is mutated must never serve a pre-update cache
   entry afterwards: the first serve after every batch misses, and every
   answer equals a cold query against the *current* index state.
"""

import numpy as np
import pytest

import repro.dynamic.patch as patch_module
from repro import ScanIndex
from repro.graphs import from_edge_list, planted_partition

#: ``ORDER_REBUILD_CHURN`` values that force each order-repair strategy.
FORCE_CHURN = {"merge": 1.1, "resort": -0.1}


def random_stream_batches(rng, graph, num_batches, max_ops):
    """Generator of (insertions, deletions, edge_set) evolving a graph."""
    edges = set(zip(*[a.tolist() for a in graph.edge_list()]))
    n = graph.num_vertices
    for _ in range(num_batches):
        current = sorted(edges)
        num_ops = int(rng.integers(1, max_ops + 1))
        num_del = min(int(rng.integers(0, num_ops + 1)), len(current))
        delete_ids = rng.choice(len(current), size=num_del, replace=False)
        deletions = [current[i] for i in delete_ids]
        insertions = []
        while len(insertions) < num_ops - num_del:
            u, v = sorted(rng.integers(0, n, size=2).tolist())
            if u == v or (u, v) in edges or (u, v) in insertions:
                continue
            insertions.append((u, v))
        edges = (edges - set(deletions)) | set(insertions)
        yield insertions, deletions, sorted(edges)


def assert_tracks_rebuild(index, edges, measure, rng):
    """Every stored column and a few clusterings equal a rebuild's."""
    rebuilt = ScanIndex.build(
        from_edge_list(edges, num_vertices=index.graph.num_vertices), measure=measure
    )
    for name, a, b in [
        ("indptr", index.graph.indptr, rebuilt.graph.indptr),
        ("indices", index.graph.indices, rebuilt.graph.indices),
        ("arc_edge_ids", index.graph.arc_edge_ids, rebuilt.graph.arc_edge_ids),
        ("values", index.similarities.values, rebuilt.similarities.values),
        ("numerators", index.similarities.numerators,
         rebuilt.similarities.numerators),
        ("no_neighbors", index.neighbor_order.neighbors,
         rebuilt.neighbor_order.neighbors),
        ("no_similarities", index.neighbor_order.similarities,
         rebuilt.neighbor_order.similarities),
        ("co_indptr", index.core_order.indptr, rebuilt.core_order.indptr),
        ("co_vertices", index.core_order.vertices, rebuilt.core_order.vertices),
        ("co_thresholds", index.core_order.thresholds,
         rebuilt.core_order.thresholds),
        ("epsilon_boundaries", index.epsilon_boundaries,
         rebuilt.epsilon_boundaries),
    ]:
        assert np.array_equal(np.asarray(a), np.asarray(b)), name
    for _ in range(4):
        mu = int(rng.integers(2, 8))
        epsilon = float(rng.uniform(0.0, 1.0))
        ours = index.query(mu, epsilon)
        theirs = rebuilt.query(mu, epsilon)
        assert np.array_equal(ours.labels, theirs.labels), (mu, epsilon)
        assert np.array_equal(ours.core_mask, theirs.core_mask)


@pytest.mark.parametrize("seed,measure", [(0, "cosine"), (1, "jaccard"), (2, "dice")])
def test_patched_index_tracks_rebuild_through_random_streams(seed, measure, monkeypatch):
    graph = planted_partition(4, 15, p_intra=0.4, p_inter=0.04, seed=seed)
    for strategy, churn in FORCE_CHURN.items():
        monkeypatch.setattr(patch_module, "ORDER_REBUILD_CHURN", churn)
        rng = np.random.default_rng(seed)
        index = ScanIndex.build(graph, measure=measure)
        for insertions, deletions, edges in random_stream_batches(rng, graph, 6, 12):
            report = index.apply_updates(insertions=insertions, deletions=deletions)
            assert report.order_strategy == strategy
            assert_tracks_rebuild(index, edges, measure, rng)


def sparse_stream_batches(rng, graph, num_batches):
    """1-4-op batches, with a scripted edge case every third batch.

    The scripted batches delete every edge of a low-degree vertex, wire an
    isolated vertex to a random partner, and add then remove edges at the
    highest-degree vertex (growing, then shrinking, ``max_mu``).  Yields
    ``(insertions, deletions, edge_list)``.
    """
    edges = set(zip(*[a.tolist() for a in graph.edge_list()]))
    n = graph.num_vertices
    grown: list[tuple[int, int]] = []
    for step in range(num_batches):
        degrees = np.zeros(n, dtype=np.int64)
        for u, v in edges:
            degrees[u] += 1
            degrees[v] += 1
        case = step % 6
        insertions: list[tuple[int, int]] = []
        deletions: list[tuple[int, int]] = []
        if case == 1:
            # Isolate a vertex: delete all (1-4) of its edges.
            v = int(rng.choice(np.flatnonzero((degrees >= 1) & (degrees <= 4))))
            deletions = [e for e in edges if v in e]
        elif case == 3:
            # Wire an isolated vertex (there is one after case 1).
            v = int(rng.choice(np.flatnonzero(degrees == 0)))
            partner = int(rng.choice(np.flatnonzero(np.arange(n) != v)))
            insertions = [(min(v, partner), max(v, partner))]
        elif case == 4:
            # Grow the largest degree by two: max_mu rises.
            hub = int(np.argmax(degrees))
            others = [x for x in rng.permutation(n).tolist()
                      if x != hub and (min(x, hub), max(x, hub)) not in edges]
            grown = [(min(hub, x), max(hub, x)) for x in others[:2]]
            insertions = grown
        elif case == 5:
            # Take those edges away again: max_mu falls back.
            deletions, grown = grown, []
        if case in (1, 3, 4, 5):
            edges = (edges - set(deletions)) | set(insertions)
            yield insertions, deletions, sorted(edges)
            continue
        # A random 1-4-op batch over the current edge set.
        current = from_edge_list(sorted(edges), num_vertices=n)
        insertions, deletions, _ = next(random_stream_batches(rng, current, 1, 4))
        edges = (edges - set(deletions)) | set(insertions)
        yield insertions, deletions, sorted(edges)


@pytest.mark.parametrize("seed,measure", [(3, "cosine"), (4, "jaccard"), (5, "dice")])
def test_sparse_streams_take_the_merge_path_and_track_rebuild(seed, measure):
    rng = np.random.default_rng(seed)
    graph = planted_partition(40, 30, p_intra=0.08, p_inter=0.0005, seed=seed)
    index = ScanIndex.build(graph, measure=measure)
    max_mus = set()
    for insertions, deletions, edges in sparse_stream_batches(rng, graph, 18):
        report = index.apply_updates(insertions=insertions, deletions=deletions)
        assert report.order_strategy == "merge"
        assert_tracks_rebuild(index, edges, measure, rng)
        max_mus.add(index.core_order.max_mu)
    # The hub batches moved max_mu both ways at least once.
    assert len(max_mus) >= 2


def test_served_results_never_mix_generations_across_updates():
    rng = np.random.default_rng(42)
    graph = planted_partition(3, 18, p_intra=0.5, p_inter=0.04, seed=9)
    index = ScanIndex.build(graph)
    session = index.session(cache_size=16)
    other = index.session(cache_size=16)
    requests = [(2, 0.35), (3, 0.5), (2, 0.35), (5, 0.65)]
    for mu, epsilon in requests:
        session.serve(mu, epsilon)
        other.serve(mu, epsilon)

    for insertions, deletions, edges in random_stream_batches(rng, graph, 4, 6):
        index.apply_updates(insertions=insertions, deletions=deletions)
        rebuilt = ScanIndex.build(
            from_edge_list(edges, num_vertices=graph.num_vertices)
        )
        for position, (mu, epsilon) in enumerate(requests):
            served = session.serve(mu, epsilon)
            sibling = other.serve(mu, epsilon)
            if position == 0:
                # The very first serve after a mutation can never hit, in
                # either session: each cleared its cache on the new epoch.
                assert not served.from_cache
                assert not sibling.from_cache
            cold = rebuilt.query(mu, epsilon)
            assert np.array_equal(served.to_clustering().labels, cold.labels)
            assert np.array_equal(sibling.to_clustering().labels, cold.labels)
        # Sweeps through the same session agree with the current state too.
        for clustering, (mu, epsilon) in zip(
            session.query_many(requests), requests
        ):
            assert np.array_equal(
                clustering.labels, rebuilt.query(mu, epsilon).labels
            )
