"""Connected components of undirected graphs and edge-induced subgraphs.

The query algorithm (Algorithm 5) clusters core vertices by running a
connectivity computation on the subgraph of ε-similar core-core edges.  The
paper's theoretical variant uses the Gazit connectivity algorithm
(``O(m + n)`` expected work, ``O(log n)`` span); the implementation uses a
concurrent union-find instead.  Two labellings are provided here: a
sequential BFS labelling, the reference the union-find labelling is tested
against, and a union-find batch labelling charged with the parallel bound
(the index query itself calls :meth:`UnionFind.connect` directly).
"""

from __future__ import annotations

from collections import deque

import numpy as np

from ..parallel.metrics import ceil_log2
from ..parallel.scheduler import Scheduler
from ..parallel.unionfind import UnionFind
from .graph import Graph

#: Label used for vertices that are not part of the labelled vertex set.
UNLABELLED = -1


def connected_components_bfs(graph: Graph) -> np.ndarray:
    """Component label of every vertex, computed by sequential BFS.

    Labels are the smallest vertex id in each component.
    """
    n = graph.num_vertices
    labels = np.full(n, UNLABELLED, dtype=np.int64)
    for source in range(n):
        if labels[source] != UNLABELLED:
            continue
        labels[source] = source
        queue: deque[int] = deque([source])
        while queue:
            vertex = queue.popleft()
            for neighbor in graph.neighbors(vertex):
                neighbor = int(neighbor)
                if labels[neighbor] == UNLABELLED:
                    labels[neighbor] = source
                    queue.append(neighbor)
    return labels


def connected_components_unionfind(
    graph: Graph,
    scheduler: Scheduler | None = None,
) -> np.ndarray:
    """Component labels via batched union-find with parallel cost accounting."""
    scheduler = scheduler if scheduler is not None else Scheduler()
    n = graph.num_vertices
    edge_u, edge_v = graph.edge_list()
    return UnionFind(n).connect(scheduler, edge_u, edge_v, np.arange(n, dtype=np.int64))


def components_of_edge_set(
    num_vertices: int,
    edges_u: np.ndarray,
    edges_v: np.ndarray,
    scheduler: Scheduler | None = None,
) -> np.ndarray:
    """Component labels induced by an explicit edge set over ``num_vertices`` ids.

    Vertices untouched by any edge keep themselves as singleton labels.  This
    is the exact shape of the connectivity step in Algorithm 5: only the
    ε-similar core-core edges participate.
    """
    scheduler = scheduler if scheduler is not None else Scheduler()
    return UnionFind(num_vertices).connect(
        scheduler, edges_u, edges_v, np.arange(num_vertices, dtype=np.int64)
    )


def num_components(labels: np.ndarray) -> int:
    """Number of distinct component labels."""
    if labels.size == 0:
        return 0
    return int(np.unique(labels).shape[0])


def largest_component_size(labels: np.ndarray) -> int:
    """Size of the largest component given a label array."""
    if labels.size == 0:
        return 0
    _, counts = np.unique(labels, return_counts=True)
    return int(counts.max())


def relabel_components(labels: np.ndarray, scheduler: Scheduler | None = None) -> np.ndarray:
    """Map arbitrary component labels to dense ids ``0 .. k-1`` (stable order)."""
    if scheduler is not None:
        n = int(labels.shape[0])
        scheduler.charge(n, ceil_log2(max(n, 1)) + 1.0)
    _, dense = np.unique(labels, return_inverse=True)
    return dense.astype(np.int64)
