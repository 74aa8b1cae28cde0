"""Tests of the benchmark's own machinery (not of the program it measures).

Run with ``PYTHONPATH=src python -m pytest perfbench/test_perfbench.py``.
They cover the results payload's lossless round trip through the
``repro bench`` store and gate, the summaries, the seeded inputs, the
load-generator guard and the reaping of the resource tracker; none of them
starts a server or a timed window.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import inputs  # noqa: E402
import run  # noqa: E402
from measure import (  # noqa: E402
    Checks, Metric, Samples, add_query_buckets, driver_line, end_to_end, payload,
    time_buckets,
)

ENVIRONMENT = {"cpu_count": 2, "platform": "Linux", "machine": "x86_64",
               "python": "3.11.7", "numpy": "2.0.0", "git_hash": None, "nproc": 2}


def _payload(scale: float = 1.0, failures=()) -> dict:
    checks = Checks(attempted=120, failures=list(failures))
    metrics = [
        Metric("setup_s", 3.25 * scale, "s", 2),
        Metric("query_p50_ms", 0.18 * scale, "ms", 1000),
        Metric("query_p99_ms", 0.4 * scale, "ms", 2000, beyond=20),
        Metric("query_per_s", 10000.0 / scale, "1/s", 1, better="higher"),
        Metric("similarity.work", 35229370.0, "count", 1),
    ]
    return payload(workload="serve-hot", seed=7, seconds=20, trace=False,
                   environment=ENVIRONMENT, graph={"num_vertices": 12000},
                   checks=checks, metrics=metrics, extra={"phase_seconds": {"setup": 12.5}})


def test_payload_round_trips_through_the_store():
    from repro.bench.store import BenchStore

    document = _payload(failures=["serve-hot: key (2, 0.3) answered stale"])
    with BenchStore() as store:
        run_id = store.record(json.loads(json.dumps(document)))
        assert store.export_run(run_id) == document


def test_bench_record_and_gate_compare_runs(tmp_path, capsys):
    from repro.cli import main

    db = tmp_path / "trajectory.sqlite"
    for name, scale in (("base.json", 1.0), ("slow.json", 2.0)):
        (tmp_path / name).write_text(json.dumps(_payload(scale)))
    assert main(["bench", "record", str(tmp_path / "base.json"), "--db", str(db)]) == 0
    assert main(["bench", "record", str(tmp_path / "slow.json"), "--db", str(db)]) == 0
    assert main(["bench", "gate", "1", "2", "--db", str(db)]) == 1
    assert main(["bench", "gate", "1", "1", "--db", str(db)]) == 0
    capsys.readouterr()


def test_metric_records_carry_gate_polarity():
    from repro.bench.report import metric_polarity

    records = {
        "s": Metric("a", 1.0, "s", 1).record(),
        "ms": Metric("b", 1.0, "ms", 1).record(),
        "rate": Metric("c", 1.0, "1/s", 1, better="higher").record(),
        "count": Metric("d", 1.0, "count", 1).record(),
    }
    polarity = {kind: [metric_polarity(k) for k in r if k not in ("unit", "samples")]
                for kind, r in records.items()}
    assert polarity == {"s": [-1], "ms": [-1], "rate": [1], "count": [0]}


def _samples(buckets) -> Samples:
    samples = Samples()
    for name in ("setup_s", "build_s", "open_s", "sweep_s", "update_ms"):
        samples.add(name, 1.0)
    add_query_buckets(samples, buckets)
    return samples


def test_p99_per_sub_window_only_with_ten_samples_beyond():
    rng = np.random.default_rng(4)
    large = [(list(rng.random(1000)), 2.0) for _ in range(5)]
    metrics = {m.name: m for m in end_to_end(_samples(large))}
    bucket_p99s = [np.percentile(latencies, 99) for latencies, _ in large]
    assert metrics["query_p99_ms"].value == pytest.approx(np.median(bucket_p99s) * 1e3)
    assert metrics["query_per_s"].value == pytest.approx(500.0)
    small = [(list(rng.random(100)), 1.0) for _ in range(5)]
    metrics = {m.name: m for m in end_to_end(_samples(small))}
    everything = [x for latencies, _ in small for x in latencies]
    assert metrics["query_p99_ms"].value == pytest.approx(np.percentile(everything, 99) * 1e3)
    assert metrics["query_p99_ms"].beyond == 5 and metrics["query_p99_ms"].samples == 500
    assert not metrics["query_p99_ms"].record()["meets_tail_rule"]


def test_time_buckets_split_the_window_evenly():
    stamped = [(t / 10, t) for t in range(100)]  # one sample per 0.1 s over 10 s
    buckets = time_buckets(stamped, 0.0, 10.0, 2.0)
    assert [len(b) for b, _ in buckets] == [20] * 5
    assert all(width == pytest.approx(2.0) for _, width in buckets)
    assert [len(b) for b, _ in time_buckets(stamped, 0.0, 10.0, 0.5)] == [5] * 20
    assert [len(b) for b, _ in time_buckets(stamped, 0.0, 0.5, 2.0)] == [100]
    assert [len(b) for b, _ in time_buckets(stamped, 0.0, 10.0, float("inf"))] == [100]


def test_steal_share_reads_the_eighth_cpu_field():
    from measure import steal_share

    before = [100, 0, 50, 800, 10, 0, 5, 20, 0, 0]
    after = [160, 0, 60, 880, 10, 0, 5, 40, 0, 0]
    assert steal_share(before, after) == pytest.approx(20 / 170)
    assert steal_share(None, after) is None


def test_driver_line_has_exactly_the_contract_keys():
    checks = Checks()
    line = json.loads(driver_line(checks, [Metric("setup_s", 1.5, "s", 2)]))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["attempted"] == 1 and line["correct"] and line["failed"] == 0
    assert line["metrics"] == {"setup_s": {"value": 1.5, "unit": "s"}}
    checks.fail("boom")
    assert json.loads(driver_line(checks, []))["correct"] is False


def test_seeded_graph_matches_the_program_generator():
    from repro.graphs import planted_partition

    n, edges = inputs.planted_partition_edges(5)
    graph = planted_partition(inputs.NUM_CLUSTERS, inputs.CLUSTER_SIZE,
                              p_intra=inputs.P_INTRA, p_inter=inputs.P_INTER, seed=5)
    edge_u, edge_v = graph.edge_list()
    assert n == graph.num_vertices
    assert np.array_equal(edges, np.column_stack([edge_u, edge_v]))
    assert np.array_equal(edges, inputs.planted_partition_edges(5)[1])


def test_churn_reads_each_snap_to_their_own_rank():
    similarities = np.random.default_rng(1).random(5000).round(3)
    reads = inputs.churn_reads(3, similarities, 200)
    boundaries = np.unique(similarities)
    ranks = [int(np.searchsorted(boundaries, eps)) for _, eps in reads]
    assert len(set(ranks)) == len(reads) == 200
    low, high = np.quantile(similarities, inputs.CHURN_QUANTILES)
    assert all(low <= boundaries[r] <= high for r in ranks)
    assert reads == inputs.churn_reads(3, similarities, 200)


def test_update_batch_deletes_edges_and_inserts_non_edges():
    rng = np.random.default_rng(2)
    n, edges = 50, np.array([(u, v) for u in range(50) for v in range(u + 1, 50) if (u + v) % 3])
    insertions, deletions = inputs.update_batch(rng, n, edges[:, 0], edges[:, 1])
    existing = {tuple(e) for e in edges.tolist()}
    assert len(set(deletions)) == inputs.BATCH_DELETIONS and set(deletions) <= existing
    assert len(set(insertions)) == inputs.BATCH_INSERTIONS
    assert not set(insertions) & existing and all(u < v for u, v in insertions)


def test_metric_lists_match_benchmark_json():
    spec = json.loads((Path(run.__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.GATED)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(
        run.PER_LAYER + run.DERIVED)
    assert [w["name"] for w in spec["workloads"]] == ["explore", "serve-churn"]


def test_resource_tracker_is_stopped_and_reaped():
    import os
    from multiprocessing import resource_tracker, shared_memory

    segment = shared_memory.SharedMemory(create=True, size=16)
    segment.close()
    segment.unlink()
    tracker = resource_tracker._resource_tracker
    pid = tracker._pid
    assert pid is not None
    run.stop_resource_tracker()
    assert tracker._pid is None
    with pytest.raises(ChildProcessError):
        os.waitpid(pid, os.WNOHANG)
    run.stop_resource_tracker()  # idempotent once stopped


def test_refuses_more_load_generators_than_cores(monkeypatch, capsys):
    import repro.bench.environment as environment

    monkeypatch.setattr(environment, "visible_cpu_count", lambda: 1)
    code = run.main(["--workload", "serve-hot", "--seed", "1", "--seconds", "1"])
    out, err = capsys.readouterr()
    assert code == 2 and out == "" and "nproc=1" in err
