"""LSH-approximated index construction on a dense weighted graph.

Dense graphs (large arboricity) are where exact similarity computation is
most expensive and where the paper's LSH approximation pays off.  This
example builds the index on a dense weighted functional-association graph
(the regime of the paper's HumanBase datasets) three ways -- exactly, with
SimHash at a small sample count, and with SimHash at a large sample count --
and reports the construction work next to the clustering quality relative to
the exact result.

Run with::

    python examples/approximate_dense_graph.py
"""

from __future__ import annotations

from repro import ApproximationConfig, ScanIndex
from repro.graphs import dense_weighted_association
from repro.quality import adjusted_rand_index, modularity_sweep


def build_and_report(graph, label, approximate=None):
    index = ScanIndex.build(graph, measure="cosine", approximate=approximate)
    report = index.construction_report
    print(
        f"  {label:<24} work={report.work:.3e}  span={report.span:.0f}  "
        f"wall={report.wall_seconds:.2f} s"
    )
    return index


def main() -> None:
    graph = dense_weighted_association(400, num_modules=5, density=0.45, seed=7)
    print(f"dense weighted graph: {graph} (average degree {2 * graph.num_edges / graph.num_vertices:.0f})")

    print("\nindex construction:")
    exact_index = build_and_report(graph, "exact cosine")
    small_index = build_and_report(
        graph, "SimHash, k=32", ApproximationConfig(measure="cosine", num_samples=32, seed=1)
    )
    large_index = build_and_report(
        graph, "SimHash, k=256", ApproximationConfig(measure="cosine", num_samples=256, seed=1)
    )

    # Ground truth: the modularity-maximising clustering of the exact index.
    sweep = modularity_sweep(exact_index, epsilon_step=0.05)
    mu, epsilon = sweep.best_parameters()
    print(f"\nexact index best parameters: mu={mu}, eps={epsilon:.2f} "
          f"(modularity {sweep.best.modularity:.3f})")
    ground_truth = exact_index.query(mu, epsilon)

    print("\nclustering quality at the exact index's best parameters:")
    for label, index in (("SimHash, k=32", small_index), ("SimHash, k=256", large_index)):
        clustering = index.query(mu, epsilon)
        ari = adjusted_rand_index(clustering, ground_truth)
        print(f"  {label:<16} ARI vs exact = {ari:.3f}  "
              f"({clustering.num_clusters} clusters)")

    print(
        "\nHigher sample counts approach the exact clustering (ARI -> 1); the work of "
        "approximate construction grows with k but stays below the exact O(alpha*m) "
        "cost on dense graphs."
    )


if __name__ == "__main__":
    main()
