"""Property tests for the observability layer: instrumentation is invisible.

The whole layer rides on one promise -- turning tracing on changes *no
output byte* of any instrumented code path.  These tests run the same
randomized workloads twice, once with the null tracer and once streaming
to a real trace file, and require bit-identical results everywhere:
index construction (columns and metadata), served answers over a
randomized (μ, ε) stream, and dynamic update patches.  Every generated
trace must additionally pass the closed JSONL schema, whatever the
workload shape was.
"""

import json

import numpy as np
import pytest

from repro import ScanIndex
from repro import obs
from repro.graphs import planted_partition
from repro.obs.schema import validate_trace_path


@pytest.fixture
def traced(tmp_path):
    """Enable file tracing for one test; always restore the null tracer.

    Starts from a fresh registry too -- the registry is process-global,
    and earlier suite tests would otherwise leak counters into the
    exact-count assertions below."""
    obs.reset()
    path = tmp_path / "trace.jsonl"
    obs.configure(path)
    try:
        yield path
    finally:
        obs.finalise()
        obs.reset()


def build_graph(seed):
    return planted_partition(3, 18, p_intra=0.4, p_inter=0.05, seed=seed)


def index_fingerprint(index):
    """Every byte a saved artifact would carry, hashable for comparison."""
    from repro.storage.artifact import IndexArtifact

    artifact = IndexArtifact.from_index(index)
    return json.dumps(
        {name: column.tolist() for name, column in sorted(artifact.columns.items())}
        | {"measure": artifact.meta["measure"]},
        sort_keys=True,
    )


@pytest.mark.parametrize("seed", [3, 11])
def test_build_is_bit_identical_with_tracing(tmp_path, seed):
    graph = build_graph(seed)
    baseline = index_fingerprint(ScanIndex.build(graph))
    path = tmp_path / "build.jsonl"
    obs.configure(path)
    try:
        traced_fingerprint = index_fingerprint(ScanIndex.build(graph))
    finally:
        obs.finalise()
    assert traced_fingerprint == baseline
    counts = validate_trace_path(path)
    assert counts["span"] >= 2  # similarities + at least one order build
    names = {json.loads(line)["name"] for line in path.read_text().splitlines()}
    # Both order stages split into their four layers.
    assert {
        f"core.{order}.{stage}"
        for order in ("neighbor_order", "core_order")
        for stage in ("rank", "pack", "sort", "gather")
    } <= names


def test_serving_answers_are_bit_identical_with_tracing(traced):
    from repro.serve import wire

    index = ScanIndex.build(build_graph(7))
    rng = np.random.default_rng(7)
    requests = [
        (int(rng.integers(2, 7)), float(rng.uniform(0.1, 0.9)))
        for _ in range(30)
    ]
    requests += requests[:10]  # force cache hits under tracing too
    baseline_session = index.session(cache_size=8)
    baseline = [
        wire.format_response(
            baseline_session.serve(mu, eps)
        )
        for mu, eps in requests
    ]
    traced_session = index.session(cache_size=8)
    answers = [
        wire.format_response(
            traced_session.serve(mu, eps)
        )
        for mu, eps in requests
    ]
    assert answers == baseline


def test_updates_are_bit_identical_with_tracing(tmp_path):
    from repro.dynamic import UpdateBatch

    graph = build_graph(5)
    neighbors = set(graph.indices[graph.indptr[0]:graph.indptr[1]].tolist())
    existing_edge = (0, int(next(iter(sorted(neighbors)))))
    missing_edge = (0, next(v for v in range(1, graph.num_vertices)
                            if v not in neighbors))

    def patched_fingerprint():
        index = ScanIndex.build(build_graph(5))
        batch = UpdateBatch.from_edges(
            insertions=[missing_edge], deletions=[existing_edge]
        )
        index.apply_updates(batch)
        return index_fingerprint(index)

    baseline = patched_fingerprint()
    path = tmp_path / "update.jsonl"
    obs.configure(path)
    try:
        traced_fingerprint = patched_fingerprint()
    finally:
        obs.finalise()
    assert traced_fingerprint == baseline
    counts = validate_trace_path(path)
    assert counts["event"] >= 1  # dynamic.apply_updates
    assert counts["snapshot"] == 1


def test_generated_traces_validate_for_random_workloads(traced):
    rng = np.random.default_rng(13)
    for seed in rng.integers(0, 1000, size=3):
        index = ScanIndex.build(build_graph(int(seed)))
        session = index.session(cache_size=4)
        for _ in range(10):
            session.serve(int(rng.integers(2, 6)), float(rng.uniform(0.2, 0.8)))
    obs.finalise()
    counts = validate_trace_path(traced)
    assert counts["span"] > 0
    assert counts["snapshot"] == 1


def test_trace_snapshot_carries_cache_metrics(traced):
    index = ScanIndex.build(build_graph(9))
    session = index.session(cache_size=8)
    for mu, eps in [(3, 0.5), (3, 0.5), (4, 0.6), (3, 0.5)]:
        session.serve(mu, eps)
    session.sync_metrics()
    obs.finalise()
    lines = [json.loads(l) for l in traced.read_text().splitlines()]
    snapshot = lines[-1]
    assert snapshot["kind"] == "snapshot"
    counters = snapshot["metrics"]["counters"]
    assert counters["serve.session.served_total"] == 4
    assert counters["serve.cache.hits_total"] == 2
    assert counters["serve.cache.misses_total"] == 2
