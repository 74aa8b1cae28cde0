"""Property tests on sparse graphs whose id products overflow 32 bits.

Vertex and edge ids are stored as ``int32``.  Past ``n = 46,341`` the
composite key ``u * n + v`` of ids near ``n - 1`` exceeds ``2**31``, so any
key formed in ``int32`` -- a Python-int multiplier keeps an ``int32``
array ``int32`` under NumPy 2 promotion -- would wrap silently.  These
graphs have ``n`` near 50,000 and put their communities at the top of the
id range.  Build, the batched sweep and one update must then still give
patch == rebuild, column for column with dtypes, and whole clusterings
that match original SCAN.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro import ScanIndex
from repro.baselines import scan_clustering
from repro.core.clustering import UNCLUSTERED
from repro.graphs import from_edge_list
from repro.storage import IndexArtifact

GRID = [(mu, epsilon) for mu in (2, 3, 5) for epsilon in (0.3, 0.5, 0.7)]


@st.composite
def wide_graphs(draw):
    """``(n, edges, insertions, deletions)`` with communities at the top ids.

    Three to five dense communities among the last 200 ids (the first always
    holds ``n - 1``), bridges from them to anywhere in the id range, and a
    sparse random background.  The update batch inserts non-edges among the
    top ids and deletes community edges.
    """
    n = draw(st.integers(48_000, 50_000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    top = (n - 1 - np.concatenate([[0], 1 + rng.permutation(199)])).tolist()
    edges = {(v, n - 1) for v in top[1:4]}
    start = 0
    for _ in range(draw(st.integers(3, 5))):
        size = int(rng.integers(6, 13))
        members = top[start:start + size]
        start += size
        edges |= {
            (min(a, b), max(a, b))
            for i, a in enumerate(members) for b in members[i + 1:]
            if rng.random() < 0.7
        }
    community = sorted({v for edge in edges for v in edge})
    for _ in range(15):
        u, v = int(rng.choice(community)), int(rng.integers(0, n))
        if u != v:
            edges.add((min(u, v), max(u, v)))
    for u, v in rng.integers(0, n, size=(300, 2)).tolist():
        if u != v:
            edges.add((min(u, v), max(u, v)))
    edges = sorted(edges)
    deletions = [edges[i] for i in rng.choice(len(edges), size=3, replace=False)
                 if edges[i][0] in community]
    insertions = []
    while len(insertions) < 3:
        u, v = sorted(int(x) for x in rng.choice(top[:start], size=2, replace=False))
        if (u, v) not in edges and (u, v) not in insertions:
            insertions.append((u, v))
    return n, edges, insertions, deletions


def assert_matches_scan(index, clustering, mu, epsilon):
    """The whole clustering against original SCAN (borders may pick any core)."""
    reference = scan_clustering(
        index.graph, mu, epsilon, similarities=index.similarities
    )
    assert np.array_equal(clustering.core_mask, reference.core_mask)
    cores = np.flatnonzero(clustering.core_mask)
    pairs = set(zip(clustering.labels[cores].tolist(), reference.labels[cores].tolist()))
    assert len({a for a, _ in pairs}) == len(pairs) == len({b for _, b in pairs})
    assert np.array_equal(
        clustering.labels != UNCLUSTERED, reference.labels != UNCLUSTERED
    )


def assert_same_columns(patched, rebuilt):
    ours = IndexArtifact.from_index(patched).columns
    theirs = IndexArtifact.from_index(rebuilt).columns
    assert set(ours) == set(theirs)
    for name in ours:
        assert ours[name].dtype == theirs[name].dtype, name
        assert ours[name].tobytes() == theirs[name].tobytes(), name


@settings(max_examples=6, deadline=None)
@given(wide_graphs())
def test_wide_ids_build_sweep_and_update_match_rebuild_and_scan(case):
    n, edges, insertions, deletions = case
    assert (n - 1) * n > np.iinfo(np.int32).max
    index = ScanIndex.build(from_edge_list(edges, num_vertices=n))
    assert index.graph.indices.dtype == np.int32
    assert int(index.graph.indices.max()) == n - 1

    swept = index.query_many(GRID)
    for (mu, epsilon), clustering in zip(GRID, swept):
        single = index.query(mu, epsilon)
        assert np.array_equal(single.labels, clustering.labels), (mu, epsilon)
        assert_matches_scan(index, clustering, mu, epsilon)

    index.apply_updates(insertions=insertions, deletions=deletions)
    current = sorted((set(edges) - set(deletions)) | set(insertions))
    rebuilt = ScanIndex.build(from_edge_list(current, num_vertices=n))
    assert_same_columns(index, rebuilt)
    for mu, epsilon in GRID:
        ours = index.query(mu, epsilon)
        theirs = rebuilt.query(mu, epsilon)
        assert np.array_equal(ours.labels, theirs.labels), (mu, epsilon)
        assert_matches_scan(index, ours, mu, epsilon)
