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


def _singleton_expanded_labels(labels: np.ndarray) -> np.ndarray:
    """Replace each UNCLUSTERED label with a fresh singleton cluster id."""
    labels = labels.copy()
    unclustered = labels == UNCLUSTERED
    if unclustered.any():
        base = int(labels.max(initial=0)) + 1
        labels[unclustered] = base + np.arange(int(unclustered.sum()), dtype=np.int64)
    return labels


def _weighted_degrees(graph: Graph):
    """The edge list, its weights and the weighted degree of every vertex."""
    edge_u, edge_v = graph.edge_list()
    if graph.edge_weights is None:
        edge_weights = np.ones(graph.num_edges, dtype=np.float64)
    else:
        edge_weights = graph.edge_weights
    weighted_degree = np.zeros(graph.num_vertices, dtype=np.float64)
    np.add.at(weighted_degree, edge_u, edge_weights)
    np.add.at(weighted_degree, edge_v, edge_weights)
    return edge_u, edge_v, edge_weights, weighted_degree


def modularity(
    graph: Graph,
    clustering: Clustering | np.ndarray,
    *,
    unclustered_as_singletons: bool = True,
) -> float:
    """Modularity of ``clustering`` on ``graph`` (weighted when the graph is).

    ``Q = Σ_c [ w_in(c) / W  -  (deg_w(c) / 2W)² ]`` where ``w_in(c)`` is the
    total weight of edges inside cluster ``c``, ``deg_w(c)`` the total
    weighted degree of its vertices, and ``W`` the total edge weight.

    ``unclustered_as_singletons`` places every unclustered vertex in its own
    cluster (the paper's convention); otherwise unclustered vertices are
    ignored entirely (they contribute neither internal edges nor degree).
    """
    labels = _labels_of(clustering)
    if labels.shape[0] != graph.num_vertices:
        raise ValueError("clustering must label every vertex of the graph")
    if graph.num_edges == 0:
        return 0.0

    if unclustered_as_singletons:
        labels = _singleton_expanded_labels(labels)

    edge_u, edge_v, edge_weights, weighted_degree = _weighted_degrees(graph)
    total_weight = float(edge_weights.sum())

    clustered = labels != UNCLUSTERED
    _, dense = np.unique(labels, return_inverse=True)
    num_clusters = int(dense.max()) + 1 if labels.size else 0

    # Internal edge weight and weighted degree, per cluster.
    internal = np.zeros(num_clusters, dtype=np.float64)
    same_cluster = clustered[edge_u] & clustered[edge_v] & (labels[edge_u] == labels[edge_v])
    np.add.at(internal, dense[edge_u[same_cluster]], edge_weights[same_cluster])

    cluster_degree = np.zeros(num_clusters, dtype=np.float64)
    np.add.at(cluster_degree, dense[clustered], weighted_degree[clustered])

    return float(
        (internal / total_weight).sum()
        - ((cluster_degree / (2.0 * total_weight)) ** 2).sum()
    )


def unclustered_modularity(graph: Graph) -> float:
    """Modularity when no vertex is clustered: ``-Σ_v (d(v) / 2W)²``.

    Every vertex is its own singleton cluster, so no edge is internal; the
    value equals :func:`modularity` of an all-unclustered labelling, bit for
    bit (the same terms summed in the same order).
    """
    if graph.num_edges == 0:
        return 0.0
    _, _, edge_weights, weighted_degree = _weighted_degrees(graph)
    total_weight = float(edge_weights.sum())
    return -float(((weighted_degree / (2.0 * total_weight)) ** 2).sum())


def coverage(graph: Graph, clustering: Clustering | np.ndarray) -> float:
    """Fraction of edge weight that falls inside clusters (the first modularity term)."""
    labels = _labels_of(clustering)
    if graph.num_edges == 0:
        return 0.0
    edge_u, edge_v = graph.edge_list()
    weights = (
        np.ones(graph.num_edges, dtype=np.float64)
        if graph.edge_weights is None
        else graph.edge_weights
    )
    internal = (
        (labels[edge_u] == labels[edge_v])
        & (labels[edge_u] != UNCLUSTERED)
        & (labels[edge_v] != UNCLUSTERED)
    )
    return float(weights[internal].sum() / weights.sum())
