"""Tests for the serving tier's observability surface.

Three contracts from the front end's side: ``!metrics`` answers one JSON
registry snapshot with every worker's counters *merged* into the front
end's (pure merge -- asking twice never double-counts); ``!stats`` now
carries a per-worker ``lru`` block and the pool's cumulative
``restarts_total``; and degradation both warns once *and* increments
persistent counters on every trigger.  Traced servers additionally write
one schema-valid JSONL file per worker next to the front end's.
"""

import asyncio
import json
import os
import signal

import pytest

from repro import ScanIndex
from repro import obs
from repro.graphs import planted_partition
from repro.obs.schema import validate_trace_path
from repro.serve import ClusterServer, DegradedServingWarning
from repro.serve.server import _WorkerHandle

SETTINGS = [(2, 0.3), (3, 0.45), (5, 0.6), (8, 0.75), (2, 0.5), (4, 0.35)]


@pytest.fixture(autouse=True)
def fresh_obs_state():
    """The registry is process-global: earlier suite tests (benchmark
    smokes, property runs) leave counters behind, so every test here
    starts from a clean slate and restores one afterwards."""
    obs.reset()
    yield
    obs.reset()


@pytest.fixture(scope="module")
def artifact(tmp_path_factory):
    graph = planted_partition(4, 20, p_intra=0.30, p_inter=0.02, seed=7)
    path = tmp_path_factory.mktemp("serve_obs") / "index.scanidx"
    ScanIndex.build(graph).save(path)
    return path


async def _ask(reader, writer, line: str) -> str:
    writer.write((line + "\n").encode("utf-8"))
    await writer.drain()
    raw = await reader.readline()
    assert raw, "server closed the connection mid-conversation"
    return raw.decode("utf-8").strip()


async def _with_server(artifact, scenario, **server_kwargs):
    server = ClusterServer(artifact, deterministic=True, **server_kwargs)
    host, port = await server.start()
    reader, writer = await asyncio.open_connection(host, port)
    try:
        return await scenario(server, reader, writer)
    finally:
        writer.close()
        await server.close()


class TestMetricsControlLine:
    def test_metrics_merges_worker_sessions(self, artifact):
        async def scenario(server, reader, writer):
            for mu, eps in SETTINGS + SETTINGS[:3]:  # repeats -> cache hits
                await _ask(reader, writer, f"{mu}:{eps}")
            return json.loads(await _ask(reader, writer, "!metrics"))

        snapshot = asyncio.run(_with_server(artifact, scenario, workers=2))
        counters = snapshot["counters"]
        assert counters["serve.requests_total"] == len(SETTINGS) + 3
        # Worker-side session counters arrive through the merge:
        assert counters["serve.session.served_total"] == len(SETTINGS) + 3
        assert counters["serve.cache.hits_total"] == 3
        assert counters["serve.cache.misses_total"] == len(SETTINGS)
        latency = snapshot["histograms"]["serve.request_seconds"]
        assert latency["count"] == len(SETTINGS) + 3
        assert latency["p99"] >= latency["p50"] >= 0.0

    def test_repeated_metrics_requests_do_not_double_count(self, artifact):
        async def scenario(server, reader, writer):
            for mu, eps in SETTINGS:
                await _ask(reader, writer, f"{mu}:{eps}")
            first = json.loads(await _ask(reader, writer, "!metrics"))
            second = json.loads(await _ask(reader, writer, "!metrics"))
            return first, second

        first, second = asyncio.run(_with_server(artifact, scenario, workers=2))
        assert second["counters"]["serve.session.served_total"] == \
            first["counters"]["serve.session.served_total"]
        assert second["counters"]["serve.cache.hits_total"] == \
            first["counters"]["serve.cache.hits_total"]

    def test_metrics_on_in_process_fallback(self, artifact, monkeypatch):
        def refuse(self):
            raise OSError("no forks today")

        monkeypatch.setattr(_WorkerHandle, "spawn", refuse)

        async def scenario(server, reader, writer):
            for mu, eps in SETTINGS[:3]:
                await _ask(reader, writer, f"{mu}:{eps}")
            return json.loads(await _ask(reader, writer, "!metrics"))

        with pytest.warns(DegradedServingWarning):
            snapshot = asyncio.run(_with_server(artifact, scenario, workers=2))
        assert snapshot["counters"]["serve.requests_degraded_total"] == 3
        assert snapshot["counters"]["serve.degraded_total"] >= 1
        assert snapshot["counters"]["serve.session.served_total"] == 3


class TestStatsExtensions:
    def test_stats_carries_lru_and_restart_totals(self, artifact):
        async def scenario(server, reader, writer):
            for mu, eps in SETTINGS + SETTINGS[:2]:
                await _ask(reader, writer, f"{mu}:{eps}")
            return json.loads(await _ask(reader, writer, "!stats"))

        stats = asyncio.run(_with_server(artifact, scenario, workers=2))
        assert stats["restarts_total"] == 0
        lru_blocks = [entry["lru"] for entry in stats["per_worker"]]
        assert all(block is not None for block in lru_blocks)
        assert sum(block["served"] for block in lru_blocks) == len(SETTINGS) + 2
        assert sum(block["cache_hits"] for block in lru_blocks) == 2
        for block in lru_blocks:
            assert {"hits", "misses", "evictions", "size", "capacity"} <= \
                set(block["cache"])

    def test_restart_shows_in_stats_and_metrics(self, artifact):
        async def scenario(server, reader, writer):
            await _ask(reader, writer, "5:0.6")
            for handle in server._workers:
                os.kill(handle.process.pid, signal.SIGKILL)
            while any(h.process.is_alive() for h in server._workers):
                await asyncio.sleep(0.01)
            for mu, eps in SETTINGS:
                await _ask(reader, writer, f"{mu}:{eps}")
            stats = json.loads(await _ask(reader, writer, "!stats"))
            metrics = json.loads(await _ask(reader, writer, "!metrics"))
            return stats, metrics

        stats, metrics = asyncio.run(_with_server(artifact, scenario, workers=2))
        assert stats["restarts_total"] >= 1
        assert metrics["counters"]["serve.worker_restarts_total"] == \
            stats["restarts_total"]


class TestTracedServer:
    def test_traced_server_writes_valid_worker_sidecars(self, artifact, tmp_path):
        trace = tmp_path / "serve.jsonl"
        obs.configure(trace)
        try:
            async def scenario(server, reader, writer):
                for mu, eps in SETTINGS + SETTINGS[:2]:
                    await _ask(reader, writer, f"{mu}:{eps}")

            asyncio.run(_with_server(artifact, scenario, workers=2))
        finally:
            obs.finalise()
        front = validate_trace_path(trace)
        assert front["span"] >= len(SETTINGS) + 2  # one serve.request each
        assert front["snapshot"] == 1
        sidecars = sorted(tmp_path.glob("serve.jsonl.worker*"))
        assert len(sidecars) == 2
        for sidecar in sidecars:
            counts = validate_trace_path(sidecar)
            assert counts["snapshot"] == 1  # worker_main finalises on exit

    def test_reloads_are_spans_on_both_sides(self, artifact, tmp_path):
        """``!invalidate`` traces the front end's reload, and every worker
        that answers at the new generation traces its own."""
        trace = tmp_path / "serve.jsonl"
        obs.configure(trace)
        try:
            async def scenario(server, reader, writer):
                for mu, eps in SETTINGS:
                    await _ask(reader, writer, f"{mu}:{eps}")
                await _ask(reader, writer, "!invalidate")
                for mu, eps in SETTINGS:
                    await _ask(reader, writer, f"{mu}:{eps}")

            asyncio.run(_with_server(artifact, scenario, workers=2))
        finally:
            obs.finalise()

        def reloads(path):
            records = [json.loads(line) for line in path.read_text().splitlines()]
            return [r["attrs"] for r in records
                    if r["kind"] == "span" and r["name"] == "serve.reload"]

        assert reloads(trace) == [{"generation": 1, "side": "front"}]
        worker_reloads = [
            attrs for sidecar in sorted(tmp_path.glob("serve.jsonl.worker*"))
            for attrs in reloads(sidecar)
        ]
        assert worker_reloads
        assert all(attrs == {"generation": 1, "side": "worker"} for attrs in worker_reloads)

    def test_untraced_server_writes_nothing(self, artifact, tmp_path):
        async def scenario(server, reader, writer):
            for mu, eps in SETTINGS:
                await _ask(reader, writer, f"{mu}:{eps}")

        asyncio.run(_with_server(artifact, scenario, workers=2))
        assert list(tmp_path.glob("*.jsonl*")) == []
        assert obs.tracer().events_written == 0
