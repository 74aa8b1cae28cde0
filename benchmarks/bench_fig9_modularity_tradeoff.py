"""Figure 9: best modularity over the parameter grid vs approximate construction time.

Paper shape: even with modest sample counts the best modularity reachable by
sweeping the parameter grid on an LSH-approximated index is close to the
exact index's best modularity; more samples close the remaining gap.
"""

import time

from repro import ScanIndex
from repro.bench import figure9_modularity_tradeoff
from repro.graphs import planted_partition
from repro.quality import modularity_sweep, parameter_grid

#: A representative subset keeps the benchmark run short; pass the full
#: dataset tuple to ``figure9_modularity_tradeoff`` to reproduce every panel.
BENCH_DATASETS = ("orkut-like", "brain-like", "webbase-like", "cochlea-like")


def test_fig9_modularity_tradeoff(benchmark, once):
    result = once(
        benchmark,
        figure9_modularity_tradeoff,
        datasets=BENCH_DATASETS,
        sample_counts=(16, 64, 256),
        num_trials=1,
        epsilon_step=0.05,
    )
    print()
    print(result.report())

    for dataset in BENCH_DATASETS:
        rows = [row for row in result.rows if row[0] == dataset and "cosine" in row[1]]
        exact_score = [row[4] for row in rows if row[1] == "exact cosine"][0]
        approx_scores = {row[2]: row[4] for row in rows if row[1] == "approx cosine"}
        best_approx = max(approx_scores.values())
        # The grid search over an approximate index finds a clustering whose
        # modularity is close to the exact index's best.
        assert best_approx >= exact_score - 0.1


def test_fig9_full_grid_sweep(benchmark, once):
    """One modularity sweep over the paper's whole grid Σ (Equation 1)."""
    graph = planted_partition(60, 200, p_intra=0.30, p_inter=0.0015, seed=1)
    index = ScanIndex.build(graph)
    parameters = parameter_grid(graph)
    started = time.perf_counter()
    result = once(benchmark, modularity_sweep, index, parameters=parameters)
    seconds = time.perf_counter() - started
    best = result.best
    print()
    print(
        f"full grid: {len(parameters)} settings on {graph.num_edges} edges in "
        f"{seconds:.3f} s; best mu={best.mu} epsilon={best.epsilon} "
        f"modularity={best.modularity:.6f}"
    )
    assert len(result.entries) == len(parameters)
    # The planted communities are what the search finds.
    assert best.num_clusters >= 50
