"""Modularity of a clustering (Newman & Girvan 2004; weighted form Newman 2004).

The paper uses modularity as its clustering-quality heuristic (Section 7.2):
the fraction of edge weight that falls within clusters minus the fraction
expected in a random graph with the same degree sequence.  Unclustered
vertices are treated as singleton clusters, exactly as in the paper's
experiments.
"""

from __future__ import annotations

import numpy as np

from ..core.clustering import UNCLUSTERED, Clustering
from ..graphs.graph import Graph


def _labels_of(clustering: Clustering | np.ndarray) -> np.ndarray:
    if isinstance(clustering, Clustering):
        return clustering.labels
    return np.asarray(clustering, dtype=np.int64)


def _internal_weight(graph: Graph, labels: np.ndarray) -> tuple[float, float]:
    """Weight of the edges inside clusters, and the total edge weight."""
    edge_u, edge_v = graph.edge_list()
    labels_u = labels[edge_u]
    inside = (labels_u == labels[edge_v]) & (labels_u != UNCLUSTERED)
    if graph.edge_weights is None:
        return float(np.count_nonzero(inside)), float(graph.num_edges)
    return float(graph.edge_weights[inside].sum()), float(graph.edge_weights.sum())


def modularity(graph: Graph, clustering: Clustering | np.ndarray) -> float:
    """Modularity of ``clustering`` on ``graph`` (weighted when the graph is).

    ``Q = Σ_c [ w_in(c) / W  -  (deg_w(c) / 2W)² ]`` where ``w_in(c)`` is the
    total weight of edges inside cluster ``c``, ``deg_w(c)`` the total
    weighted degree of its vertices, and ``W`` the total edge weight.  Every
    unclustered vertex is its own cluster: no edge inside it, and its own
    ``(deg_w(v) / 2W)²``.

    One pass over the labels: the weighted degrees come off the CSR, the
    internal weight from one label compare over the canonical edge list, and
    the cluster volumes from one ``bincount`` over dense cluster ids.
    """
    labels = _labels_of(clustering)
    if labels.shape[0] != graph.num_vertices:
        raise ValueError("clustering must label every vertex of the graph")
    if graph.num_edges == 0:
        return 0.0

    internal, total_weight = _internal_weight(graph, labels)
    if graph.arc_weights is None:
        degree = graph.degrees.astype(np.float64)
    else:
        degree = np.bincount(
            graph.arc_sources(), weights=graph.arc_weights,
            minlength=graph.num_vertices,
        )
    clustered = labels != UNCLUSTERED
    _, cluster_ids = np.unique(labels[clustered], return_inverse=True)
    volumes = np.bincount(cluster_ids, weights=degree[clustered])
    singletons = degree[~clustered]
    scale = 2.0 * total_weight
    return float(
        internal / total_weight
        - ((volumes / scale) ** 2).sum()
        - ((singletons / scale) ** 2).sum()
    )


def coverage(graph: Graph, clustering: Clustering | np.ndarray) -> float:
    """Fraction of edge weight that falls inside clusters (the first modularity term)."""
    if graph.num_edges == 0:
        return 0.0
    internal, total_weight = _internal_weight(graph, _labels_of(clustering))
    return internal / total_weight
