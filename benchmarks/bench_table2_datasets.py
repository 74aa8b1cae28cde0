"""Table 2: summary of the benchmark datasets (stand-ins for the paper's graphs)."""

from repro.bench import DATASETS, table2_datasets


def test_table2_datasets(benchmark, once):
    result = once(benchmark, table2_datasets, "bench")
    print()
    print(result.report())

    assert len(result.rows) == len(DATASETS) == 6
    weighted = {row[0] for row in result.rows if row[4] == "weighted"}
    assert weighted == {"blood-vessel-like", "cochlea-like"}
