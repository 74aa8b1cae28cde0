"""Adjusted Rand Index (Hubert & Arabie 1985) between two clusterings.

The paper uses the ARI to compare the clustering obtained with approximate
similarities against the "ground truth" clustering obtained with exact
similarities at the same parameter setting (Figure 10).  Unclustered vertices
are treated as singleton clusters so the comparison is over full partitions.
"""

from __future__ import annotations

import numpy as np

from ..core.clustering import UNCLUSTERED, Clustering
from .modularity import _labels_of


def _pairs(counts: np.ndarray) -> float:
    """Sum of ``count choose 2`` over an array of counts."""
    counts = counts.astype(np.float64)
    return float((counts * (counts - 1.0) / 2.0).sum())


def _contingency(
    proposed: Clustering | np.ndarray,
    ground_truth: Clustering | np.ndarray,
) -> tuple[int, float, float, float]:
    """``(n, joint, pairs_a, pairs_b)``: vertex pairs together in both, in each.

    An unclustered vertex is a singleton cluster, which holds no pair, so
    only clustered vertices are counted (in both, for the joint pairs).
    """
    labels_a = _labels_of(proposed)
    labels_b = _labels_of(ground_truth)
    if labels_a.shape != labels_b.shape:
        raise ValueError("clusterings must be over the same vertex set")
    _, dense_a = np.unique(labels_a, return_inverse=True)
    _, dense_b = np.unique(labels_b, return_inverse=True)
    in_a = labels_a != UNCLUSTERED
    in_b = labels_b != UNCLUSTERED
    both = in_a & in_b
    num_b = int(dense_b.max(initial=0)) + 1
    joint = dense_a[both].astype(np.int64) * num_b + dense_b[both]
    _, joint_counts = np.unique(joint, return_counts=True)
    return (
        int(labels_a.shape[0]),
        _pairs(joint_counts),
        _pairs(np.bincount(dense_a[in_a])),
        _pairs(np.bincount(dense_b[in_b])),
    )


def adjusted_rand_index(
    proposed: Clustering | np.ndarray,
    ground_truth: Clustering | np.ndarray,
) -> float:
    """ARI between a proposed clustering and a ground-truth clustering.

    Returns 1.0 for identical partitions, about 0 for independent ones, and
    may be negative for partitions that agree less than chance.
    """
    n, sum_joint_pairs, sum_a_pairs, sum_b_pairs = _contingency(proposed, ground_truth)
    if n == 0:
        return 1.0
    total_pairs = n * (n - 1) / 2.0
    expected = sum_a_pairs * sum_b_pairs / total_pairs if total_pairs else 0.0
    maximum = (sum_a_pairs + sum_b_pairs) / 2.0
    denominator = maximum - expected
    if denominator == 0.0:
        # Both partitions are all-singletons or a single cluster: identical.
        return 1.0
    return float((sum_joint_pairs - expected) / denominator)


def rand_index(
    proposed: Clustering | np.ndarray,
    ground_truth: Clustering | np.ndarray,
) -> float:
    """Unadjusted Rand index (fraction of vertex pairs on which both agree)."""
    n, sum_joint, sum_a, sum_b = _contingency(proposed, ground_truth)
    if n < 2:
        return 1.0
    total = n * (n - 1) / 2.0
    agreements = total + 2.0 * sum_joint - sum_a - sum_b
    return float(agreements / total)
