"""Seeded inputs: the shared graph, the query grids and streams, update batches.

Everything here is a pure function of the workload seed (and, for streams
that depend on stored similarities, of the artifact built from the seeded
graph), so the same seed always replays the same inputs.  The program under
test never sees the seed: it receives the edge-list file written by
:func:`write_graph` and the request lines built from these grids.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

#: The shared input: ``planted_partition(60, 200, p_intra=0.30,
#: p_inter=0.0015)`` -- 12,000 vertices, ~464k edges, average degree ~77,
#: close to Orkut's.
NUM_CLUSTERS = 60
CLUSTER_SIZE = 200
P_INTRA = 0.30
P_INTER = 0.0015

#: ``explore``: 5 μ × 9 ε over the similarity range where clusterings are
#: non-trivial (above ε ≈ 0.35 every query returns zero cores).
EXPLORE_MUS = (2, 5, 10, 20, 40)
EXPLORE_EPSILONS = tuple(round(float(e), 4) for e in np.linspace(0.03, 0.30, 9))

#: ``serve-hot``: 4 μ × 16 ε exact settings, 64 keys -- under each worker's
#: 256-entry LRU, so warm-up makes every timed request a hit.  The ε range
#: is the upper half of the similarity distribution (q50 ≈ 0.23, q90 ≈ 0.30
#: on this graph), where clusterings differ from setting to setting and a
#: miss costs 20-70 ms rather than the ~120 ms of ε below 0.2.
HOT_MUS = (2, 5, 10, 20)
HOT_EPSILONS = tuple(round(float(e), 4) for e in np.linspace(0.22, 0.30, 16))
HOT_ZIPF_EXPONENT = 1.1

#: ``serve-churn``: μ values of the miss-heavy reader; ε is drawn over the
#: stored-similarity quantiles q50-q90.
CHURN_MUS = (2, 3, 5, 8, 13)
CHURN_QUANTILES = (0.50, 0.90)

#: One update batch: 20 deletions of existing edges plus 20 insertions of
#: non-edges (~0.01% of the edges).
BATCH_DELETIONS = 20
BATCH_INSERTIONS = 20


def planted_partition_edges(seed: int) -> tuple[int, np.ndarray]:
    """Canonical ``(u < v)`` edge array of the seeded planted-partition graph.

    Same sampling scheme as ``repro.graphs.planted_partition`` (intra-cluster
    Bernoulli pairs, then Poisson-many random inter-cluster pairs), kept here
    so a change to the program's generators cannot silently move the input.
    """
    rng = np.random.default_rng(seed)
    n = NUM_CLUSTERS * CLUSTER_SIZE
    upper_u, upper_v = np.triu_indices(CLUSTER_SIZE, k=1)
    chunks = []
    for cluster in range(NUM_CLUSTERS):
        offset = cluster * CLUSTER_SIZE
        keep = rng.random(upper_u.shape[0]) < P_INTRA
        chunks.append(np.column_stack([upper_u[keep] + offset, upper_v[keep] + offset]))
    count = rng.poisson(P_INTER * (n * (n - 1) / 2))
    u = rng.integers(0, n, size=count)
    v = rng.integers(0, n, size=count)
    different = (u // CLUSTER_SIZE) != (v // CLUSTER_SIZE)
    chunks.append(np.column_stack([u[different], v[different]]))
    edges = np.concatenate(chunks).astype(np.int64)
    low, high = np.minimum(edges[:, 0], edges[:, 1]), np.maximum(edges[:, 0], edges[:, 1])
    keep = low != high
    return n, np.unique(np.column_stack([low[keep], high[keep]]), axis=0)


def write_edge_list(edges: np.ndarray, path: Path) -> None:
    """Write ``u v`` lines (the SNAP edge-list format the program reads)."""
    text = "\n".join(f"{u} {v}" for u, v in edges.tolist())
    path.write_text(text + "\n")


def write_graph(seed: int, path: Path) -> dict:
    """Generate the seeded graph, write it as an edge list, describe it."""
    n, edges = planted_partition_edges(seed)
    write_edge_list(edges, path)
    return {
        "num_vertices": n,
        "num_edges": int(edges.shape[0]),
        "num_arcs": int(2 * edges.shape[0]),
    }


def explore_grid() -> list[tuple[int, float]]:
    return [(mu, epsilon) for mu in EXPLORE_MUS for epsilon in EXPLORE_EPSILONS]


def hot_grid() -> list[tuple[int, float]]:
    return [(mu, epsilon) for mu in HOT_MUS for epsilon in HOT_EPSILONS]


def zipf_stream(seed: int, num_keys: int, length: int) -> np.ndarray:
    """Key indices drawn Zipf(1.1) over a seeded popularity order."""
    rng = np.random.default_rng([seed, 1])
    weights = 1.0 / np.arange(1, num_keys + 1) ** HOT_ZIPF_EXPONENT
    popularity = rng.permutation(num_keys)
    draws = rng.choice(num_keys, size=length, p=weights / weights.sum())
    return popularity[draws]


def churn_reads(seed: int, similarities: np.ndarray, length: int) -> list[tuple[int, float]]:
    """Miss-only reads: each ε snaps to its own stored-similarity rank.

    The ranks are drawn without replacement from the boundaries between
    the q50 and q90 similarity quantiles, and each ε is drawn uniformly
    inside its rank's interval ``(b[r-1], b[r]]``, so no two reads share a
    cache key and the working set exceeds any cache.
    """
    rng = np.random.default_rng([seed, 2])
    boundaries = np.unique(np.asarray(similarities, dtype=np.float64))
    low, high = np.quantile(similarities, CHURN_QUANTILES)
    first = max(int(np.searchsorted(boundaries, low)), 1)
    last = int(np.searchsorted(boundaries, high))
    ranks = rng.choice(np.arange(first, last), size=min(length, last - first), replace=False)
    fractions = rng.random(ranks.shape[0])
    epsilons = boundaries[ranks] - fractions * (boundaries[ranks] - boundaries[ranks - 1])
    mus = rng.choice(CHURN_MUS, size=ranks.shape[0])
    return [(int(mu), float(epsilon)) for mu, epsilon in zip(mus, epsilons)]


def churn_grid(similarities: np.ndarray) -> list[tuple[int, float]]:
    """5 μ × 9 ε at the q50-q90 quantiles: the churn workload's sweep."""
    quantiles = np.linspace(*CHURN_QUANTILES, 9)
    epsilons = [round(float(e), 6) for e in np.quantile(similarities, quantiles)]
    return [(mu, epsilon) for mu in CHURN_MUS for epsilon in epsilons]


def update_batch(rng: np.random.Generator, num_vertices: int, edge_u: np.ndarray,
                 edge_v: np.ndarray) -> tuple[list, list]:
    """20 deletions of existing edges and 20 insertions of non-edges."""
    picked = rng.choice(edge_u.shape[0], size=BATCH_DELETIONS, replace=False)
    deletions = [(int(edge_u[i]), int(edge_v[i])) for i in picked]
    existing = edge_u.astype(np.int64) * num_vertices + edge_v
    existing.sort()
    insertions: list[tuple[int, int]] = []
    chosen: set[int] = set()
    while len(insertions) < BATCH_INSERTIONS:
        u, v = (int(x) for x in rng.integers(0, num_vertices, size=2))
        u, v = min(u, v), max(u, v)
        key = u * num_vertices + v
        position = int(np.searchsorted(existing, key))
        present = position < existing.shape[0] and existing[position] == key
        if u == v or present or key in chosen:
            continue
        chosen.add(key)
        insertions.append((u, v))
    return insertions, deletions
