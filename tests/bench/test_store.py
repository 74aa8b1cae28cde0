"""Tests for the sqlite results store: validation, labeling, losslessness."""

import json

import numpy as np
import pytest

from repro.bench.store import (
    BenchStore,
    BenchStoreError,
    flatten_payload,
)

ENV_A = {
    "cpu_count": 4,
    "platform": "Linux",
    "machine": "x86_64",
    "python": "3.11.7",
    "numpy": "2.4.6",
    "git_hash": "abc1234",
}


def payload_with(**extra) -> dict:
    base = {
        "benchmark": "demo",
        "environment": dict(ENV_A),
        "graphs": [
            {"name": "orkut-like", "num_edges": 900, "build_seconds": 1.5},
            {"name": "cochlea-like", "num_edges": 400, "build_seconds": 0.5},
        ],
    }
    base.update(extra)
    return base


class TestValidation:
    def test_rejects_non_mapping(self):
        with pytest.raises(BenchStoreError, match="mapping"):
            flatten_payload([1, 2, 3])

    def test_rejects_missing_benchmark_name(self):
        with pytest.raises(BenchStoreError, match="benchmark"):
            flatten_payload({"seconds": 1.0})

    def test_rejects_empty_benchmark_name(self):
        with pytest.raises(BenchStoreError, match="benchmark"):
            flatten_payload({"benchmark": "", "seconds": 1.0})

    def test_rejects_non_mapping_environment(self):
        with pytest.raises(BenchStoreError, match="environment"):
            flatten_payload(
                {"benchmark": "x", "seconds": 1.0, "environment": ["linux"]}
            )

    def test_rejects_payload_without_numbers(self):
        with pytest.raises(BenchStoreError, match="no numeric cells"):
            flatten_payload({"benchmark": "x", "note": "words only"})

    def test_rejects_nan_and_inf(self):
        for bad in (float("nan"), float("inf")):
            with pytest.raises(BenchStoreError, match="non-finite"):
                flatten_payload({"benchmark": "x", "seconds": bad})

    def test_rejects_unsupported_leaf_types(self):
        with pytest.raises(BenchStoreError, match="unsupported"):
            flatten_payload({"benchmark": "x", "seconds": 1.0, "blob": {1, 2}})

    def test_rejects_non_string_keys(self):
        with pytest.raises(BenchStoreError, match="non-string key"):
            flatten_payload({"benchmark": "x", "rows": {1: 2.0}})

    def test_error_message_names_the_offending_path(self):
        payload = {"benchmark": "x", "graphs": [{"name": "g", "t": float("nan")}]}
        with pytest.raises(BenchStoreError, match=r"graphs\[0\]\.t"):
            flatten_payload(payload)

    def test_rejected_payload_writes_nothing(self):
        with BenchStore() as store:
            with pytest.raises(BenchStoreError):
                store.record({"benchmark": "x", "seconds": float("nan")})
            rows = store._connection.execute(
                "SELECT (SELECT COUNT(*) FROM runs), (SELECT COUNT(*) FROM cells)"
            ).fetchone()
            assert rows == (0, 0)

    def test_numpy_scalars_are_unwrapped(self):
        with BenchStore() as store:
            run_id = store.record(
                {"benchmark": "x", "seconds": np.float64(1.25), "n": np.int64(7)}
            )
            cells = store.numeric_cells(run_id)
            assert cells[("", "", "seconds")] == 1.25
            assert cells[("", "", "n")] == 7.0
            # Export holds plain JSON numbers, not numpy reprs.
            json.dumps(store.export_run(run_id))


class TestLabeling:
    def test_graph_rungs_use_name_then_vertices(self):
        with BenchStore() as store:
            run_id = store.record(
                {
                    "benchmark": "x",
                    "graphs": [
                        {"name": "orkut-like", "seconds": 1.0},
                        {"num_vertices": 1250, "seconds": 2.0},
                        {"seconds": 3.0},
                    ],
                }
            )
            graphs = {record.graph for record in store.cells(run_id) if record.graph}
            assert graphs == {"orkut-like", "v1250", "graphs[2]"}

    def test_duplicate_rung_labels_never_merge(self):
        with BenchStore() as store:
            run_id = store.record(
                {
                    "benchmark": "x",
                    "graphs": [
                        {"name": "rung", "seconds": 1.0},
                        {"name": "rung", "seconds": 2.0},
                    ],
                }
            )
            cells = store.numeric_cells(run_id)
            assert cells[("rung", "", "seconds")] == 1.0
            assert cells[("rung#2", "", "seconds")] == 2.0

    def test_known_list_groups_label_by_identifier(self):
        with BenchStore() as store:
            run_id = store.record(
                {
                    "benchmark": "x",
                    "graphs": [
                        {
                            "name": "g",
                            "jobs": [
                                {"jobs": 1, "seconds": 4.0},
                                {"jobs": 4, "seconds": 1.0},
                            ],
                            "batches": [{"fraction": 0.001, "speedup": 9.0}],
                        }
                    ],
                    "configs": [{"workers": 2, "rps": 100.0}],
                }
            )
            keys = set(store.numeric_cells(run_id))
            assert ("g", "jobs=1", "seconds") in keys
            assert ("g", "jobs=4", "seconds") in keys
            assert ("g", "fraction=0.001", "speedup") in keys
            assert ("", "workers=2", "rps") in keys

    def test_unknown_lists_fall_back_to_indexes(self):
        with BenchStore() as store:
            run_id = store.record(
                {"benchmark": "x", "trials": [{"seconds": 1.0}, {"seconds": 2.0}]}
            )
            keys = set(store.numeric_cells(run_id))
            assert ("", "trials[0]", "seconds") in keys
            assert ("", "trials[1]", "seconds") in keys

    def test_nested_cells_join_with_dots(self):
        with BenchStore() as store:
            run_id = store.record(
                {"benchmark": "x", "modes": {"cold": {"open_seconds": 0.2}}}
            )
            assert ("", "modes.cold", "open_seconds") in store.numeric_cells(run_id)


class TestRoundTrip:
    def test_export_reconstructs_payload_exactly(self):
        payload = payload_with(
            note="free text survives",
            flags={"mmap": True, "fallback": None},
            empty_list=[],
            empty_dict={},
            mixed=[1, "two", 3.5],
        )
        with BenchStore() as store:
            run_id = store.record(payload, source="test")
            assert store.export_run(run_id) == payload

    def test_runs_are_independent(self):
        first = payload_with()
        second = payload_with(graphs=[{"name": "only", "build_seconds": 9.0}])
        with BenchStore() as store:
            id_first = store.record(first)
            id_second = store.record(second)
            assert store.export_run(id_first) == first
            assert store.export_run(id_second) == second

    def test_persists_across_reopen(self, tmp_path):
        payload = payload_with()
        db = tmp_path / "trajectory.sqlite"
        with BenchStore(db) as store:
            run_id = store.record(payload, source="first-open")
        with BenchStore(db) as store:
            assert store.export_run(run_id) == payload
            assert store.run(run_id).source == "first-open"


class TestRunMetadata:
    def test_fingerprint_and_git_hash_come_from_environment_block(self):
        with BenchStore() as store:
            run_id = store.record(payload_with(), recorded_at="2026-08-08T00:00:00")
            run = store.run(run_id)
            assert run.git_hash == "abc1234"
            assert run.fingerprint.cpu_count == 4
            assert run.recorded_at == "2026-08-08T00:00:00"

    def test_explicit_git_hash_wins(self):
        with BenchStore() as store:
            run_id = store.record(payload_with(), git_hash="fff0000")
            assert store.run(run_id).git_hash == "fff0000"

    def test_recorded_at_defaults_to_a_timestamp(self):
        with BenchStore() as store:
            run_id = store.record(payload_with())
            assert store.run(run_id).recorded_at  # non-empty ISO stamp

    def test_environment_rows_are_shared(self):
        with BenchStore() as store:
            first = store.record(payload_with())
            second = store.record(payload_with())
            assert (
                store.run(first).fingerprint_key
                == store.run(second).fingerprint_key
            )
            count = store._connection.execute(
                "SELECT COUNT(*) FROM environments"
            ).fetchone()[0]
            assert count == 1

    def test_unknown_run_id_raises_cleanly(self):
        with BenchStore() as store:
            with pytest.raises(BenchStoreError, match="no run with id 99"):
                store.run(99)
            with pytest.raises(BenchStoreError):
                store.cells(99)


class TestImportFile:
    def test_import_file_uses_filename_as_source(self, tmp_path):
        path = tmp_path / "BENCH_demo.json"
        path.write_text(json.dumps(payload_with()))
        with BenchStore() as store:
            run_id = store.import_file(path)
            assert store.run(run_id).source == "BENCH_demo.json"

    def test_import_missing_file_raises_store_error(self, tmp_path):
        with BenchStore() as store:
            with pytest.raises(BenchStoreError, match="cannot read"):
                store.import_file(tmp_path / "nope.json")

    def test_import_invalid_json_raises_store_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with BenchStore() as store:
            with pytest.raises(BenchStoreError, match="not valid JSON"):
                store.import_file(path)
