"""Figure 8: approximate index construction time versus number of LSH samples.

Paper shape: approximate Jaccard (k-partition MinHash) construction is
consistently cheaper than approximate cosine (SimHash) at the same sample
count, and the curves flatten (or even drop) at large sample counts because
the low-degree heuristic reverts more vertices to exact computation.
"""

from collections import defaultdict

from repro.bench import UNWEIGHTED_DATASETS, figure8_approx_construction


def test_fig8_approx_construction(benchmark, once):
    result = once(benchmark, figure8_approx_construction)
    print()
    print(result.report())

    # Organise rows: work[(dataset, similarity)][samples] = work charge.
    work = defaultdict(dict)
    for dataset, similarity, samples, _, _, charged in result.rows:
        work[(dataset, similarity)][samples] = charged

    for dataset in UNWEIGHTED_DATASETS:
        cosine = work[(dataset, "approx cosine")]
        jaccard = work[(dataset, "approx jaccard")]
        for samples in cosine:
            # MinHash sketching (O(k + d) per vertex) undercuts SimHash (O(k d)).
            assert jaccard[samples] <= cosine[samples]
