"""Table 1: empirical check of the index-construction work bounds.

The measured work of exact and approximate index construction is divided by
the bounds the paper states in Table 1 (``(α + log n) m`` exact,
``(k + log log n) m`` approximate); the ratios should stay roughly flat as the
graph family grows.
"""

from repro.bench import table1_work_scaling


def test_table1_work_scaling(benchmark, once):
    result = once(
        benchmark,
        table1_work_scaling,
        sizes=(20, 40, 80, 160),
        cluster_size=25,
        num_samples=32,
    )
    print()
    print(result.report())

    ratios_exact = [row[4] for row in result.rows]
    ratios_approx = [row[6] for row in result.rows]
    # Work tracks the bound: the ratio varies by less than an order of
    # magnitude across an 8x growth in graph size.
    assert max(ratios_exact) / min(ratios_exact) < 10
    assert max(ratios_approx) / min(ratios_approx) < 10
