"""Tests for run comparison, metric polarity and the regression gate."""

import json
from pathlib import Path

import pytest

from repro.bench.report import compare_runs, gate_runs, metric_polarity
from repro.bench.store import BenchStore, BenchStoreError

FIXTURES = Path(__file__).resolve().parent / "fixtures"
REPO_ROOT = Path(__file__).resolve().parents[2]


def fixture_store() -> BenchStore:
    """The committed three-run scenario: baseline, regressed rerun on the
    same machine class, and one run from a different machine class."""
    store = BenchStore()
    for name, stamp in [
        ("run_baseline", "2026-08-01T00:00:00+00:00"),
        ("run_regressed", "2026-08-02T00:00:00+00:00"),
        ("run_other_machine", "2026-08-03T00:00:00+00:00"),
    ]:
        store.import_file(FIXTURES / f"{name}.json", recorded_at=stamp)
    return store


class TestMetricPolarity:
    def test_lower_is_better(self):
        for metric in ("build_seconds", "open_ms", "rss_bytes", "mismatches",
                       "failures", "p99_seconds"):
            assert metric_polarity(metric) == -1

    def test_higher_is_better(self):
        for metric in ("requests_per_second", "speedup", "hit_rate", "rps",
                       "identical"):
            assert metric_polarity(metric) == 1

    def test_throughput_beats_the_seconds_substring(self):
        """``requests_per_second`` contains ``seconds`` but is throughput."""
        assert metric_polarity("requests_per_second") == 1

    def test_neutral_metrics_are_never_gated(self):
        for metric in ("num_vertices", "num_edges", "cpu_count", "batch_size"):
            assert metric_polarity(metric) == 0


class TestCompareRuns:
    def test_classifies_regressions_improvements_and_noise(self):
        with fixture_store() as store:
            comparison = compare_runs(store, 1, 2)
            regressed = {delta.label for delta in comparison.regressions}
            improved = {delta.label for delta in comparison.improvements}
            # 2.5x slower queries on orkut-like: regression.
            assert regressed == {"orkut-like/query_seconds"}
            # 33% more throughput on cochlea-like: improvement.
            assert improved == {"cochlea-like/requests_per_second"}
            # 2% drift on the remaining cells stays under the 15% noise bar,
            # and the neutral num_edges cells are never considered.
            assert comparison.shared > 2
            assert comparison.fingerprints_match

    def test_threshold_is_respected(self):
        with fixture_store() as store:
            loose = compare_runs(store, 1, 2, threshold=2.0)
            assert not loose.regressions and not loose.improvements
            tight = compare_runs(store, 1, 2, threshold=0.01)
            assert {delta.label for delta in tight.regressions} >= {
                "orkut-like/query_seconds",
                "orkut-like/requests_per_second",
            }

    def test_deltas_sorted_by_magnitude(self):
        with fixture_store() as store:
            comparison = compare_runs(store, 1, 2, threshold=0.01)
            changes = [abs(delta.change) for delta in comparison.regressions]
            assert changes == sorted(changes, reverse=True)

    def test_zero_baseline_cells_are_skipped(self):
        with BenchStore() as store:
            first = store.record({"benchmark": "x", "wait_seconds": 0.0})
            second = store.record({"benchmark": "x", "wait_seconds": 5.0})
            comparison = compare_runs(store, first, second)
            assert not comparison.regressions

    def test_different_benchmarks_refuse_to_compare(self):
        with BenchStore() as store:
            first = store.record({"benchmark": "a", "seconds": 1.0})
            second = store.record({"benchmark": "b", "seconds": 1.0})
            with pytest.raises(BenchStoreError, match="different benchmarks"):
                compare_runs(store, first, second)


class TestGate:
    def test_fires_on_seeded_regression(self):
        with fixture_store() as store:
            result = gate_runs(store, 1, 2)
            assert result.status == "fail"
            assert result.exit_code == 1
            rendered = result.render()
            assert "bench-gate: FAIL" in rendered
            assert "REGRESSED orkut-like/query_seconds" in rendered
            assert "+150.0%" in rendered

    def test_quiet_on_same_noise_rerun(self):
        """A rerun drifting within the threshold must not fail the gate."""
        baseline = json.loads((FIXTURES / "run_baseline.json").read_text())
        rerun = json.loads((FIXTURES / "run_baseline.json").read_text())
        for entry in rerun["graphs"]:
            entry["query_seconds"] *= 1.05  # 5% timer jitter
        with BenchStore() as store:
            first = store.record(baseline)
            second = store.record(rerun)
            result = gate_runs(store, first, second)
            assert result.status == "pass"
            assert result.exit_code == 0
            assert "bench-gate: PASS" in result.render()

    def test_refuses_across_machine_classes(self):
        """Regression-sized movement on a different machine is not a verdict."""
        with fixture_store() as store:
            result = gate_runs(store, 1, 3)
            assert result.status == "skip"
            assert result.exit_code == 0
            rendered = result.render()
            assert "bench-gate: SKIP -- environment fingerprints differ" in rendered
            # The refusal is structured: both environments are spelled out.
            assert "cpu_count=4" in rendered and "cpu_count=1" in rendered

    def test_committed_container_cells_refuse_against_other_machines(self):
        """The shipped 1-CPU-container numbers must never gate a run from a
        different machine class (here: the same payload with more CPUs)."""
        for name in ("BENCH_construction.json", "BENCH_serve_concurrent.json"):
            payload = json.loads((REPO_ROOT / name).read_text())
            assert payload["environment"]["cpu_count"] == 1
            elsewhere = json.loads(json.dumps(payload))
            elsewhere["environment"]["cpu_count"] = 8
            with BenchStore() as store:
                first = store.import_file(REPO_ROOT / name)
                second = store.record(elsewhere, source="laptop")
                result = gate_runs(store, first, second)
                assert result.status == "skip", name
                assert result.exit_code == 0

    def test_committed_envless_files_only_match_equally_partial_runs(self):
        """Legacy payloads without an environment block form their own
        fingerprint class -- they never gate against fingerprinted runs."""
        with BenchStore() as store:
            construction = store.import_file(REPO_ROOT / "BENCH_construction.json")
            serving = store.import_file(REPO_ROOT / "BENCH_serving.json")
            assert not json.loads(
                (REPO_ROOT / "BENCH_serving.json").read_text()
            ).get("environment")
            assert (
                store.run(construction).fingerprint_key
                != store.run(serving).fingerprint_key
            )
