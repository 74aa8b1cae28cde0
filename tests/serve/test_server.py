"""Tests for the concurrent serving front end (`serve/server.py`).

The contracts under test, per the module's own charter: responses at any
worker count are bit-identical to a single in-process session; routing is
deterministic cache-affinity; a killed worker restarts transparently; a
pool that cannot be kept alive degrades to in-process serving with one
structured warning; and the ``!invalidate`` generation flip means every
request answered after the ack reflects the swapped on-disk artifact.
"""

import asyncio
import os
import signal

import pytest

from repro import ScanIndex
from repro.graphs import planted_partition
from repro.serve import ClusterServer, DegradedServingWarning, route, wire
from repro.serve.server import _WorkerHandle
from repro.storage.format import COLUMNS_FILE

#: Settings exercised by most tests (mirror the benchmark workload shape).
SETTINGS = [(2, 0.3), (3, 0.45), (5, 0.6), (8, 0.75), (2, 0.5), (4, 0.35)]


@pytest.fixture(scope="module")
def artifact(tmp_path_factory):
    graph = planted_partition(4, 20, p_intra=0.30, p_inter=0.02, seed=7)
    path = tmp_path_factory.mktemp("serve") / "index.scanidx"
    ScanIndex.build(graph).save(path)
    return path


async def _ask(reader, writer, line: str) -> str:
    writer.write((line + "\n").encode("utf-8"))
    await writer.drain()
    raw = await reader.readline()
    assert raw, "server closed the connection mid-conversation"
    return raw.decode("utf-8").strip()


async def _with_server(artifact, scenario, **server_kwargs):
    """Run ``scenario(server, reader, writer)`` against a started server."""
    server = ClusterServer(artifact, **server_kwargs)
    host, port = await server.start()
    reader, writer = await asyncio.open_connection(host, port)
    try:
        return await scenario(server, reader, writer)
    finally:
        writer.close()
        await server.close()


def _expected_lines(artifact, settings):
    """Single-session answers, cache field stripped (hit patterns differ)."""
    session = ScanIndex.load(artifact).session()
    return [
        wire.strip_cache_field(
            wire.format_response(session.serve(mu, eps))
        )
        for mu, eps in settings
    ]


class TestRouting:
    def test_route_is_deterministic_and_in_range(self):
        for workers in (1, 2, 3, 8):
            for mu in range(2, 12):
                for rank in range(0, 40, 7):
                    first = route(mu, rank, workers)
                    assert 0 <= first < workers
                    assert first == route(mu, rank, workers)

    def test_route_spreads_settings(self):
        hits = {route(mu, rank, 4) for mu in range(2, 10) for rank in range(16)}
        assert len(hits) == 4


class TestBitIdentity:
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_matches_single_session_at_any_worker_count(self, artifact, workers):
        stream = SETTINGS * 3  # repeats exercise each worker's cache
        expected = _expected_lines(artifact, stream)

        async def scenario(server, reader, writer):
            return [
                await _ask(reader, writer, f"{mu}:{eps:g}") for mu, eps in stream
            ]

        responses = asyncio.run(_with_server(artifact, scenario, workers=workers))
        assert [wire.strip_cache_field(r) for r in responses] == expected

    def test_repeat_is_a_cache_hit_on_its_affinity_worker(self, artifact):
        async def scenario(server, reader, writer):
            first = await _ask(reader, writer, "3:0.45")
            second = await _ask(reader, writer, "3:0.45")
            return first, second

        first, second = asyncio.run(_with_server(artifact, scenario, workers=2))
        assert first.endswith("cache=miss")
        assert second.endswith("cache=hit")
        assert wire.strip_cache_field(first) == wire.strip_cache_field(second)

    def test_affinity_pins_settings_to_workers(self, artifact):
        """Every request of one setting lands on its route() worker."""
        import json

        async def scenario(server, reader, writer):
            for _ in range(4):
                for mu, eps in SETTINGS:
                    await _ask(reader, writer, f"{mu}:{eps:g}")
            per_setting = {
                route(mu, server._snapper.rank(eps), 2) for mu, eps in SETTINGS
            }
            stats = json.loads(await _ask(reader, writer, "!stats"))
            return per_setting, stats

        routed, stats = asyncio.run(_with_server(artifact, scenario, workers=2))
        counts = [w["requests"] for w in stats["per_worker"]]
        assert sum(counts) == 4 * len(SETTINGS)
        # Workers that no setting routes to must have served nothing.
        for worker_id, count in enumerate(counts):
            if worker_id not in routed:
                assert count == 0
            else:
                assert count > 0


class TestErrors:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"workers": 0},
            {"max_inflight": 0},
            {"max_queue_depth": 0},
            {"request_deadline": 0},
            {"request_deadline": -1.0},
            {"request_deadline": float("nan")},
            {"request_deadline": float("inf")},
            {"probe_interval": 0},
            {"probe_interval": -1.0},
            {"probe_interval": float("nan")},
            {"probe_interval": float("inf")},
            {"drain_deadline": -5.0},
            {"drain_deadline": float("nan")},
            {"drain_deadline": float("inf")},
        ],
        ids=lambda kwargs: "-".join(f"{k}={v}" for k, v in kwargs.items()),
    )
    def test_constructor_rejects_broken_settings(self, artifact, kwargs):
        with pytest.raises(ValueError):
            ClusterServer(artifact, **kwargs)

    def test_constructor_accepts_zero_drain_deadline(self, artifact):
        assert ClusterServer(artifact, drain_deadline=0).drain_deadline == 0.0

    def test_malformed_and_out_of_range_requests(self, artifact):
        async def scenario(server, reader, writer):
            return [
                await _ask(reader, writer, line)
                for line in ("nonsense", "1:0.5", "3:1.5", "3:-0.1", "2:zebra")
            ]

        responses = asyncio.run(_with_server(artifact, scenario, workers=1))
        assert all(r.startswith(wire.ERROR_PREFIX) for r in responses)

    def test_unknown_control_command(self, artifact):
        async def scenario(server, reader, writer):
            return await _ask(reader, writer, "!frobnicate")

        response = asyncio.run(_with_server(artifact, scenario, workers=1))
        assert response.startswith(wire.ERROR_PREFIX)


class TestSupervision:
    def test_killed_worker_restarts_and_request_succeeds(self, artifact):
        expected = _expected_lines(artifact, SETTINGS)

        async def scenario(server, reader, writer):
            warmup = [
                await _ask(reader, writer, f"{mu}:{eps:g}") for mu, eps in SETTINGS
            ]
            for handle in server._workers:
                os.kill(handle.process.pid, signal.SIGKILL)
            while any(h.process.is_alive() for h in server._workers):
                await asyncio.sleep(0.01)
            replies = [
                await _ask(reader, writer, f"{mu}:{eps:g}") for mu, eps in SETTINGS
            ]
            restarts = [h.restarts for h in server._workers]
            return warmup, replies, restarts

        warmup, replies, restarts = asyncio.run(
            _with_server(artifact, scenario, workers=2)
        )
        assert [wire.strip_cache_field(r) for r in warmup] == expected
        assert [wire.strip_cache_field(r) for r in replies] == expected
        # Each worker that got post-kill traffic was respawned exactly once.
        assert sum(restarts) >= 1
        # A restarted worker starts with a cold cache: repeats were misses.
        assert all(r.endswith("cache=miss") for r in replies)

    def test_unspawnable_pool_degrades_with_one_warning(self, artifact, monkeypatch):
        expected = _expected_lines(artifact, SETTINGS)

        def refuse(self):
            raise OSError("fork refused by test")

        monkeypatch.setattr(_WorkerHandle, "spawn", refuse)

        async def scenario(server, reader, writer):
            replies = [
                await _ask(reader, writer, f"{mu}:{eps:g}") for mu, eps in SETTINGS
            ]
            return replies, server.degraded, server.stats()

        with pytest.warns(DegradedServingWarning):
            replies, degraded, stats = asyncio.run(
                _with_server(artifact, scenario, workers=2)
            )
        assert degraded and stats["degraded"]
        assert [wire.strip_cache_field(r) for r in replies] == expected


class TestGenerationFlip:
    def test_invalidate_after_artifact_swap_reaches_every_worker(
        self, artifact, tmp_path
    ):
        """Every response after the !invalidate ack reflects the new artifact."""
        import shutil

        swapped = tmp_path / "index.scanidx"
        shutil.copytree(artifact, swapped)

        graph_edge = ScanIndex.load(swapped).graph
        deletion = (int(graph_edge.edge_u[0]), int(graph_edge.edge_v[0]))

        before = _expected_lines(swapped, [(3, 0.45)])[0]

        async def scenario(server, reader, writer):
            stale = [await _ask(reader, writer, "3:0.45") for _ in range(4)]
            # Swap the artifact on disk (crash-safe save), then flip.
            mutated = ScanIndex.load(swapped)
            mutated.apply_updates(deletions=[deletion])
            mutated.save(swapped)
            ack = await _ask(reader, writer, "!invalidate")
            fresh = [await _ask(reader, writer, "3:0.45") for _ in range(4)]
            return stale, ack, fresh, server.generation

        stale, ack, fresh, generation = asyncio.run(
            _with_server(swapped, scenario, workers=2)
        )
        after = _expected_lines(swapped, [(3, 0.45)])[0]
        assert after != before, "test update must change the answer"
        assert ack == "invalidated generation=1" and generation == 1
        assert all(wire.strip_cache_field(r) == before for r in stale)
        assert all(wire.strip_cache_field(r) == after for r in fresh)

    def test_invalidate_against_an_unloadable_artifact_changes_nothing(
        self, artifact, tmp_path
    ):
        """A failed reload answers one error line and keeps the generation.

        The garbage column file is swapped in by rename, as a save would swap
        a new one, so the mmaps already open keep the old file's bytes.
        """
        import shutil

        swapped = tmp_path / "index.scanidx"
        shutil.copytree(artifact, swapped)
        expected = _expected_lines(swapped, SETTINGS)
        good = (swapped / COLUMNS_FILE).read_bytes()

        def swap_in(data: bytes) -> None:
            staged = tmp_path / "staged.bin"
            staged.write_bytes(data)
            os.replace(staged, swapped / COLUMNS_FILE)

        async def scenario(server, reader, writer):
            before = [await _ask(reader, writer, f"{mu}:{eps}") for mu, eps in SETTINGS]
            swap_in(b"not the columns" * 64)
            refused = await _ask(reader, writer, "!invalidate")
            generation = server.generation
            after = [await _ask(reader, writer, f"{mu}:{eps}") for mu, eps in SETTINGS]
            swap_in(good)
            ack = await _ask(reader, writer, "!invalidate")
            again = [await _ask(reader, writer, f"{mu}:{eps}") for mu, eps in SETTINGS]
            return before, refused, generation, after, ack, again

        before, refused, generation, after, ack, again = asyncio.run(
            _with_server(swapped, scenario, workers=2)
        )
        assert refused.startswith(wire.ERROR_PREFIX) and "generation 0" in refused
        assert generation == 0
        assert ack == "invalidated generation=1"
        for replies in (before, after, again):
            assert [wire.strip_cache_field(r) for r in replies] == expected
