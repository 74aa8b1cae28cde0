"""Figure 10: ARI of approximate clusterings against the exact clustering.

Paper shape: at the exact index's modularity-maximising parameters, the
clustering produced by the approximate index approaches the exact clustering
(ARI -> 1) as the sample count grows.
"""

from repro.bench import figure10_ari_tradeoff

#: Subset used by the benchmark run (full figure available through the driver).
BENCH_DATASETS = ("orkut-like", "friendster-like", "blood-vessel-like")


def test_fig10_ari_tradeoff(benchmark, once):
    result = once(
        benchmark,
        figure10_ari_tradeoff,
        datasets=BENCH_DATASETS,
        sample_counts=(16, 64, 256),
        num_trials=1,
        epsilon_step=0.05,
    )
    print()
    print(result.report())

    for dataset in BENCH_DATASETS:
        rows = [row for row in result.rows if row[0] == dataset and row[1] == "approx cosine"]
        ari_by_samples = {row[2]: row[4] for row in rows}
        # More samples bring the approximate clustering closer to the exact one.
        assert ari_by_samples[256] >= ari_by_samples[16] - 0.05
        assert ari_by_samples[256] > 0.5
