"""Community detection in a synthetic social network.

This example mirrors the workload that motivates the paper: a social network
with planted communities is indexed once, the SCAN parameter grid is swept to
find the modularity-maximising clustering, and the recovered communities are
compared against the planted ground truth with the adjusted Rand index.
Hubs (users bridging several communities) and outliers are reported as well.

Run with::

    python examples/social_communities.py
"""

from __future__ import annotations

from repro import ScanIndex
from repro.graphs import planted_partition, planted_partition_labels
from repro.quality import adjusted_rand_index, modularity, modularity_sweep

NUM_COMMUNITIES = 12
COMMUNITY_SIZE = 60


def main() -> None:
    graph = planted_partition(
        NUM_COMMUNITIES,
        COMMUNITY_SIZE,
        p_intra=0.3,
        p_inter=0.004,
        seed=42,
    )
    ground_truth = planted_partition_labels(NUM_COMMUNITIES, COMMUNITY_SIZE)
    print(f"social network: {graph}")

    index = ScanIndex.build(graph, measure="cosine")
    print(
        "index construction: "
        f"work={index.construction_report.work:.3e}, "
        f"wall={index.construction_report.wall_seconds:.2f} s"
    )

    # Sweep the SCAN parameter grid; every query reads prefixes of the
    # precomputed orders, so the whole sweep is cheap.
    sweep = modularity_sweep(index, epsilon_step=0.05)
    best = sweep.best
    print(
        f"best parameters: mu={best.mu}, eps={best.epsilon:.2f} "
        f"(modularity {best.modularity:.3f}, {best.num_clusters} clusters)"
    )

    clustering = index.query(best.mu, best.epsilon, classify_hubs_and_outliers=True)
    score = adjusted_rand_index(clustering, ground_truth)
    print(f"agreement with planted communities (ARI): {score:.3f}")
    print(f"modularity of the clustering:            {modularity(graph, clustering):.3f}")
    print(f"clustered vertices: {clustering.num_clustered_vertices}/{graph.num_vertices}")
    print(f"hubs: {clustering.hubs().size}, outliers: {clustering.outliers().size}")

    sizes = clustering.cluster_sizes()
    print(f"cluster sizes (largest 12): {sizes[:12].tolist()}")


if __name__ == "__main__":
    main()
