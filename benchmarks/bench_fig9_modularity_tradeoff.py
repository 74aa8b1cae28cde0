"""Figure 9: best modularity over the parameter grid vs approximate construction time.

Paper shape: even with modest sample counts the best modularity reachable by
sweeping the parameter grid on an LSH-approximated index is close to the
exact index's best modularity; more samples close the remaining gap.
"""

from repro.bench import figure9_modularity_tradeoff

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
