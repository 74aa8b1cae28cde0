"""Figure 6: clustering query times with mu = 5 and varying epsilon.

Paper shape: the parallel index query is faster than GS*-Index (5-32x) and
faster than ppSCAN at every tested epsilon; query time falls as epsilon grows
because fewer edges clear the similarity threshold (output-sensitive cost).
"""

import numpy as np

from repro.bench import (
    UNWEIGHTED_DATASETS,
    VARIANT_GS_INDEX,
    VARIANT_PARALLEL,
    VARIANT_PPSCAN,
    figure6_query_vs_epsilon,
)


def test_fig6_query_vs_epsilon(benchmark, once):
    result = once(benchmark, figure6_query_vs_epsilon)
    print()
    print(result.report())

    measurements = result.extras["measurements"]

    def times(dataset, variant):
        rows = [m for m in measurements if m.dataset == dataset and m.variant == variant]
        return np.array([m.simulated_seconds for m in rows])

    for dataset in UNWEIGHTED_DATASETS:
        index_times = times(dataset, VARIANT_PARALLEL)
        gs_times = times(dataset, VARIANT_GS_INDEX)
        ppscan_times = times(dataset, VARIANT_PPSCAN)
        # The parallel index query wins against both baselines at every epsilon
        # (up to microsecond noise on queries whose output is empty).
        assert np.all(index_times <= gs_times + 1e-6)
        assert np.all(index_times < ppscan_times)
        # Query cost is output-sensitive: large epsilon is never more expensive
        # than the densest (epsilon = 0.1) query.
        assert index_times[-1] <= index_times[0] * 1.5
