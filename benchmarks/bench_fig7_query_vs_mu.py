"""Figure 7: clustering query times with epsilon = 0.6 and varying mu.

Paper shape: the parallel index query stays below GS*-Index and ppSCAN across
the whole mu range; once mu exceeds the largest core degree the query returns
an empty clustering almost instantly.
"""

import numpy as np

from repro.bench import (
    UNWEIGHTED_DATASETS,
    VARIANT_GS_INDEX,
    VARIANT_PARALLEL,
    VARIANT_PPSCAN,
    figure7_query_vs_mu,
)


def test_fig7_query_vs_mu(benchmark, once):
    result = once(benchmark, figure7_query_vs_mu)
    print()
    print(result.report())

    measurements = result.extras["measurements"]

    def times(dataset, variant):
        rows = [m for m in measurements if m.dataset == dataset and m.variant == variant]
        return np.array([m.simulated_seconds for m in rows])

    for dataset in UNWEIGHTED_DATASETS:
        index_times = times(dataset, VARIANT_PARALLEL)
        # The index query wins against both baselines at every mu (up to
        # microsecond noise on queries whose output is empty).
        assert np.all(index_times <= times(dataset, VARIANT_GS_INDEX) + 1e-6)
        assert np.all(index_times < times(dataset, VARIANT_PPSCAN))
        # Queries at the largest mu (few or no cores) are among the cheapest.
        assert index_times[-1] <= np.median(index_times) * 1.5
