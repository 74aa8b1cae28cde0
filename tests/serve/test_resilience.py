"""Resilience tests for the concurrent serving tier.

The four contracts of the hardened front end, each driven by the
deterministic fault harness rather than hoped-for failures:

* **deadlines + hedging** -- a wedged worker cannot head-of-line-block its
  affinity bucket: dispatch hedges past it within the request deadline,
  late replies are dropped (never mis-delivered), and the watchdog reaps a
  worker whose oldest request exceeds the supervision timeout;
* **admission control + shedding** -- past the inflight high-water mark or
  a saturated worker queue, the server answers ``error: overloaded
  (shed)`` immediately instead of queueing unboundedly;
* **circuit-breaker recovery** -- a pool that could not be spawned is not
  degraded forever: the background probe respawns it under backoff, a
  canary request gates the half-open phase, and serving returns to full
  fan-out with a ``serve.recovered`` event;
* **graceful drain** -- ``!drain`` (and SIGTERM through the CLI) stops
  accepting, finishes in-flight requests inside the drain deadline, and
  exits cleanly with a final merged metric snapshot.

Plus the satellite contracts: over-long request lines answer an inline
error without killing the connection, the blocking client wraps transport
failures in :class:`ServeClientError` with bounded reconnect-retry for
idempotent lines, and ``!invalidate``/``!stats``/``!metrics`` stay honest
while degraded and across a degrade → recover cycle.
"""

import asyncio
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro import ScanIndex
from repro.graphs import planted_partition
from repro.parallel.supervise import SupervisionPolicy
from repro.serve import (
    ClusterServer,
    DegradedServingWarning,
    ServeClient,
    ServeClientError,
    route,
    wire,
)
from repro.serve.server import _WorkerHandle
from repro.testing import FaultSpec, inject

SETTINGS = [(2, 0.3), (3, 0.45), (5, 0.6), (8, 0.75), (2, 0.5), (4, 0.35)]

#: Interactive supervision for tests: wedges are declared in well under a
#: second so the watchdog paths run in test time.
FAST_POLICY = SupervisionPolicy(
    task_timeout=0.6, retries=2, backoff_base=0.01, backoff_cap=0.02
)


@pytest.fixture(autouse=True)
def fresh_obs_state():
    """The registry is process-global: without a reset, counters asserted
    here (hedges, sheds, recoveries) would accumulate across tests."""
    from repro import obs

    obs.reset()
    yield
    obs.reset()


@pytest.fixture(scope="module")
def artifact(tmp_path_factory):
    graph = planted_partition(4, 20, p_intra=0.30, p_inter=0.02, seed=7)
    path = tmp_path_factory.mktemp("resilience") / "index.scanidx"
    ScanIndex.build(graph).save(path)
    return path


async def _ask(reader, writer, line: str) -> str:
    writer.write((line + "\n").encode("utf-8"))
    await writer.drain()
    raw = await reader.readline()
    assert raw, "server closed the connection mid-conversation"
    return raw.decode("utf-8").strip()


async def _with_server(artifact, scenario, **server_kwargs):
    server = ClusterServer(artifact, **server_kwargs)
    host, port = await server.start()
    reader, writer = await asyncio.open_connection(host, port)
    try:
        return await scenario(server, host, port, reader, writer)
    finally:
        writer.close()
        await server.close()


def _expected_lines(artifact, settings):
    session = ScanIndex.load(artifact).session()
    return [
        wire.strip_cache_field(
            wire.format_response(session.serve(mu, eps))
        )
        for mu, eps in settings
    ]


def _setting_routed_to(server, worker_index: int, workers: int = 2):
    """A ``(mu, eps)`` from SETTINGS whose affinity worker is ``worker_index``."""
    for mu, eps in SETTINGS:
        if route(mu, server._snapper.rank(eps), workers) == worker_index:
            return mu, eps
    raise AssertionError("no setting routes to that worker")  # pragma: no cover


# ----------------------------------------------------------------------
# Deadlines + hedging
# ----------------------------------------------------------------------
class TestDeadlineHedging:
    def test_wedged_worker_is_hedged_past_then_reaped(self, artifact, tmp_path):
        """A hung affinity worker neither blocks nor strands the request."""

        async def scenario(server, host, port, reader, writer):
            mu, eps = _setting_routed_to(server, 0)
            wedged = server._workers[0]
            started = time.perf_counter()
            response = await _ask(reader, writer, f"{mu}:{eps:g}")
            elapsed = time.perf_counter() - started
            # The watchdog reaps the wedged worker at task_timeout.
            deadline = asyncio.get_running_loop().time() + 5.0
            while (
                server._restarts_count == 0
                and asyncio.get_running_loop().time() < deadline
            ):
                await asyncio.sleep(0.02)
            again = await _ask(reader, writer, f"{mu}:{eps:g}")
            return response, elapsed, again, server._restarts_count, wedged

        spec = FaultSpec(
            site="serve.worker.request", action="hang", task=0,
            times=1, token=str(tmp_path / "wedge"), seconds=30.0,
        )
        with inject(spec):
            response, elapsed, again, restarts, wedged = asyncio.run(
                _with_server(
                    artifact, scenario, workers=2,
                    policy=FAST_POLICY, request_deadline=0.15,
                )
            )
        expected = set(_expected_lines(artifact, SETTINGS))
        assert wire.strip_cache_field(response) in expected
        assert wire.strip_cache_field(again) in expected
        # Served by the hedge well under the 30 s wedge.
        assert elapsed < 2.0
        # The wedge was reaped and respawned, not left blocking forever.
        assert restarts >= 1

    def test_late_reply_is_dropped_not_misdelivered(self, artifact, tmp_path):
        """A straggler's answer after a hedge is discarded by request id."""

        async def scenario(server, host, port, reader, writer):
            mu, eps = _setting_routed_to(server, 0)
            response = await _ask(reader, writer, f"{mu}:{eps:g}")
            # Let the straggler finish its 0.4 s nap and write its late
            # reply; id-matching must drop it rather than hand it to the
            # next request.
            await asyncio.sleep(0.7)
            other = await _ask(reader, writer, "5:0.6")
            return response, other, server._late_replies_total.value, \
                server._restarts_count

        spec = FaultSpec(
            site="serve.worker.request", action="hang", task=0,
            times=1, token=str(tmp_path / "nap"), seconds=0.4,
        )
        with inject(spec):
            response, other, late, restarts = asyncio.run(
                _with_server(
                    artifact, scenario, workers=2, request_deadline=0.1,
                )
            )
        expected = set(_expected_lines(artifact, SETTINGS))
        assert wire.strip_cache_field(response) in expected
        assert wire.strip_cache_field(other) in expected
        assert late >= 1
        # A straggler is not a wedge: it answered before task_timeout, so
        # the watchdog must not have killed it.
        assert restarts == 0

    def test_hedge_counter_increments(self, artifact, tmp_path):
        async def scenario(server, host, port, reader, writer):
            mu, eps = _setting_routed_to(server, 0)
            await _ask(reader, writer, f"{mu}:{eps:g}")
            return server._hedges_total.value

        spec = FaultSpec(
            site="serve.worker.request", action="hang", task=0,
            times=1, token=str(tmp_path / "hop"), seconds=0.4,
        )
        with inject(spec):
            hedges = asyncio.run(
                _with_server(artifact, scenario, workers=2, request_deadline=0.1)
            )
        assert hedges >= 1


# ----------------------------------------------------------------------
# Admission control + load shedding
# ----------------------------------------------------------------------
class TestLoadShedding:
    def test_inflight_high_water_mark_sheds(self, artifact, tmp_path):
        """Past max_inflight, the answer is an immediate structured refusal."""

        async def scenario(server, host, port, reader, writer):
            connections = [
                await asyncio.open_connection(host, port) for _ in range(3)
            ]
            try:
                # Request 1 wedges the only worker for 0.5 s; request 2
                # queues behind it; request 3 trips the high-water mark.
                connections[0][1].write(b"5:0.6\n")
                await connections[0][1].drain()
                await asyncio.sleep(0.1)
                connections[1][1].write(b"3:0.45\n")
                await connections[1][1].drain()
                await asyncio.sleep(0.1)
                shed = await _ask(*connections[2], "2:0.3")
                first = (await connections[0][0].readline()).decode().strip()
                second = (await connections[1][0].readline()).decode().strip()
                return shed, first, second, server.stats()
            finally:
                for _, w in connections:
                    w.close()

        spec = FaultSpec(
            site="serve.worker.request", action="hang", task=0,
            times=1, token=str(tmp_path / "busy"), seconds=0.5,
        )
        with inject(spec):
            shed, first, second, stats = asyncio.run(
                _with_server(artifact, scenario, workers=1, max_inflight=2)
            )
        assert shed == wire.format_error("overloaded (shed)")
        expected = set(_expected_lines(artifact, SETTINGS))
        assert wire.strip_cache_field(first) in expected
        assert wire.strip_cache_field(second) in expected
        assert stats["shed_total"] == 1
        assert stats["inflight"] == 0

    def test_saturated_worker_queue_sheds(self, artifact, tmp_path):
        """With every candidate pipe at max depth, dispatch sheds."""

        async def scenario(server, host, port, reader, writer):
            other = await asyncio.open_connection(host, port)
            try:
                other[1].write(b"5:0.6\n")
                await other[1].drain()
                await asyncio.sleep(0.1)  # request 1 lands on the worker pipe
                shed = await _ask(reader, writer, "3:0.45")
                first = (await other[0].readline()).decode().strip()
                return shed, first
            finally:
                other[1].close()

        spec = FaultSpec(
            site="serve.worker.request", action="hang", task=0,
            times=1, token=str(tmp_path / "deep"), seconds=0.5,
        )
        with inject(spec):
            shed, first = asyncio.run(
                _with_server(
                    artifact, scenario, workers=1,
                    max_queue_depth=1, max_inflight=16,
                )
            )
        assert shed == wire.format_error("overloaded (shed)")
        assert wire.strip_cache_field(first) in set(
            _expected_lines(artifact, SETTINGS)
        )

    def test_twice_max_inflight_clients_are_each_served_or_shed(
        self, artifact, tmp_path
    ):
        """At 2x saturation every offered request is answered: served or shed.

        The accounting identity of the shedding contract: served + shed ==
        offered, no transport error, no request left unanswered, and every
        served line equals the single-session answer.
        """
        max_inflight = 4
        stream = SETTINGS * 4
        expected = _expected_lines(artifact, stream)

        async def client(host, port, indices):
            answers = {}
            try:
                reader, writer = await asyncio.open_connection(host, port)
                try:
                    for i in indices:
                        mu, eps = stream[i]
                        writer.write(f"{mu}:{eps}\n".encode("utf-8"))
                        await writer.drain()
                        raw = await reader.readline()
                        if not raw:
                            break
                        answers[i] = raw.decode("utf-8").strip()
                finally:
                    writer.close()
            except ConnectionError:
                return answers, 1
            return answers, 0

        async def scenario(server, host, port, reader, writer):
            clients = 2 * max_inflight
            return await asyncio.wait_for(asyncio.gather(*(
                client(host, port, range(c, len(stream), clients))
                for c in range(clients)
            )), timeout=30.0)

        # Worker 0 stalls on its first request, so requests pile up past
        # the high-water mark while the stall lasts.
        spec = FaultSpec(
            site="serve.worker.request", action="hang", task=0,
            times=1, token=str(tmp_path / "stall"), seconds=0.5,
        )
        with inject(spec):
            results = asyncio.run(
                _with_server(artifact, scenario, workers=2, max_inflight=max_inflight)
            )
        answers = {i: line for part, _ in results for i, line in part.items()}
        shed_line = wire.format_error("overloaded (shed)")
        served = [i for i, line in answers.items() if line != shed_line]
        shed = len(answers) - len(served)
        assert sum(errors for _, errors in results) == 0
        assert len(stream) - len(answers) == 0, "requests left unanswered"
        assert len(served) + shed == len(stream)
        assert shed >= 1
        for i in served:
            assert wire.strip_cache_field(answers[i]) == expected[i]

    def test_control_lines_bypass_admission(self, artifact):
        """An overloaded tier must stay observable: !stats always answers."""

        async def scenario(server, host, port, reader, writer):
            server._inflight = server.max_inflight  # simulate saturation
            try:
                stats = json.loads(await _ask(reader, writer, "!stats"))
                shed = await _ask(reader, writer, "5:0.6")
            finally:
                server._inflight = 0
            return stats, shed

        stats, shed = asyncio.run(_with_server(artifact, scenario, workers=1))
        assert stats["workers"] == 1
        assert shed == wire.format_error("overloaded (shed)")


# ----------------------------------------------------------------------
# Circuit-breaker recovery from degraded mode
# ----------------------------------------------------------------------
def _flaky_spawn(monkeypatch, failures: int):
    """Patch _WorkerHandle.spawn to refuse the first ``failures`` calls."""
    real_spawn = _WorkerHandle.spawn
    calls = {"n": 0}

    def spawn(self):
        calls["n"] += 1
        if calls["n"] <= failures:
            raise OSError(f"fork refused by test (call {calls['n']})")
        real_spawn(self)

    monkeypatch.setattr(_WorkerHandle, "spawn", spawn)
    return calls


async def _await_recovery(server, timeout: float = 8.0) -> None:
    deadline = asyncio.get_running_loop().time() + timeout
    while server.degraded and asyncio.get_running_loop().time() < deadline:
        await asyncio.sleep(0.02)


class TestCircuitBreakerRecovery:
    def test_degraded_pool_recovers_via_probe(self, artifact, monkeypatch):
        """Degradation is a circuit state: the probe restores full fan-out."""
        _flaky_spawn(monkeypatch, failures=2)

        async def scenario(server, host, port, reader, writer):
            assert server.degraded  # the first spawn attempt was refused
            degraded_reply = await _ask(reader, writer, "3:0.45")
            await _await_recovery(server)
            recovered = not server.degraded
            replies = [
                await _ask(reader, writer, f"{mu}:{eps:g}")
                for mu, eps in SETTINGS
            ]
            stats = json.loads(await _ask(reader, writer, "!stats"))
            return degraded_reply, recovered, replies, stats, \
                server._recovered_total.value

        with pytest.warns(DegradedServingWarning):
            degraded_reply, recovered, replies, stats, recoveries = asyncio.run(
                _with_server(
                    artifact, scenario, workers=2, probe_interval=0.05,
                )
            )
        expected = _expected_lines(artifact, SETTINGS)
        assert wire.strip_cache_field(degraded_reply) in set(expected)
        assert recovered, "the recovery probe never closed the circuit"
        assert [wire.strip_cache_field(r) for r in replies] == expected
        assert recoveries == 1
        assert stats["degraded"] is False
        # Full fan-out restored: the pool, not the fallback, served them.
        assert sum(w["requests"] for w in stats["per_worker"]) == len(SETTINGS)
        assert all(w["alive"] for w in stats["per_worker"])

    def test_probe_fault_site_keeps_circuit_open_then_heals(
        self, artifact, monkeypatch, tmp_path
    ):
        """An armed probe fault pins the circuit open; disarming heals it."""
        _flaky_spawn(monkeypatch, failures=1)

        from repro import obs

        async def scenario(server, host, port, reader, writer):
            assert server.degraded
            replies = [await _ask(reader, writer, "3:0.45") for _ in range(3)]
            await _await_recovery(server)
            probes = obs.counter("serve.probe_attempts_total").value
            return replies, server.degraded, probes, \
                server._recovered_total.value

        spec = FaultSpec(
            site="serve.recovery.probe", action="raise", error="OSError",
            times=2, token=str(tmp_path / "probe"),
        )
        with pytest.warns(DegradedServingWarning):
            with inject(spec):
                replies, degraded, probes, recoveries = asyncio.run(
                    _with_server(
                        artifact, scenario, workers=2, probe_interval=0.05,
                    )
                )
        # Probes 1-2 were blocked by the armed fault, a later one healed.
        assert probes >= 3
        assert not degraded and recoveries == 1
        assert all(
            wire.strip_cache_field(r) in set(_expected_lines(artifact, SETTINGS))
            for r in replies
        )

    def test_spawn_fault_site_drives_degrade_then_recover(self, artifact):
        """The README scenario: injected fork refusals, then a live heal."""

        async def scenario(server, host, port, reader, writer):
            assert server.degraded
            reply = await _ask(reader, writer, "5:0.6")
            await _await_recovery(server)
            return reply, server.degraded

        spec = FaultSpec(site="serve.worker.spawn", action="raise", times=2)
        with pytest.warns(DegradedServingWarning):
            with inject(spec):
                reply, degraded = asyncio.run(
                    _with_server(
                        artifact, scenario, workers=2, probe_interval=0.05,
                    )
                )
        assert not degraded
        assert wire.strip_cache_field(reply) in set(
            _expected_lines(artifact, SETTINGS)
        )

    def test_unspawnable_pool_stays_available_in_process(
        self, artifact, monkeypatch
    ):
        """With spawn permanently broken, serving continues and probes retry."""

        def refuse(self):
            raise OSError("fork refused by test")

        monkeypatch.setattr(_WorkerHandle, "spawn", refuse)

        async def scenario(server, host, port, reader, writer):
            replies = [
                await _ask(reader, writer, f"{mu}:{eps:g}")
                for mu, eps in SETTINGS
            ]
            await asyncio.sleep(0.3)  # let a few probes fail
            from repro import obs

            return replies, server.degraded, \
                obs.counter("serve.probe_attempts_total").value

        with pytest.warns(DegradedServingWarning):
            replies, degraded, probes = asyncio.run(
                _with_server(artifact, scenario, workers=2, probe_interval=0.02)
            )
        assert degraded
        assert probes >= 1
        assert [wire.strip_cache_field(r) for r in replies] == \
            _expected_lines(artifact, SETTINGS)


# ----------------------------------------------------------------------
# Graceful drain
# ----------------------------------------------------------------------
class TestGracefulDrain:
    def test_drain_control_line_stops_accepting_and_shuts_down(self, artifact):
        async def scenario(server, host, port, reader, writer):
            await _ask(reader, writer, "5:0.6")
            ack = await _ask(reader, writer, "!drain")
            await asyncio.wait_for(server._drained.wait(), timeout=5.0)
            with pytest.raises(OSError):
                await asyncio.open_connection(host, port)
            return ack, server._workers, server.final_snapshot

        ack, workers, snapshot = asyncio.run(
            _with_server(artifact, scenario, workers=2)
        )
        assert ack.startswith("draining deadline=")
        assert workers == []  # the pool was stopped, not abandoned
        # The final merged snapshot was flushed before the pool died.
        assert snapshot is not None
        assert snapshot["counters"]["serve.requests_total"] == 1
        assert snapshot["counters"]["serve.session.served_total"] == 1
        assert snapshot["counters"]["serve.drains_total"] == 1

    def test_drain_finishes_inflight_requests(self, artifact, tmp_path):
        """A request in flight when the drain starts still gets its answer."""

        async def scenario(server, host, port, reader, writer):
            slow = await asyncio.open_connection(host, port)
            try:
                slow[1].write(b"5:0.6\n")
                await slow[1].drain()
                await asyncio.sleep(0.1)  # the request is now in flight
                ack = await _ask(reader, writer, "!drain")
                answer = (await asyncio.wait_for(
                    slow[0].readline(), timeout=5.0
                )).decode().strip()
                await asyncio.wait_for(server._drained.wait(), timeout=5.0)
                return ack, answer
            finally:
                slow[1].close()

        spec = FaultSpec(
            site="serve.worker.request", action="hang", task=0,
            times=1, token=str(tmp_path / "slow"), seconds=0.4,
        )
        with inject(spec):
            ack, answer = asyncio.run(
                _with_server(
                    artifact, scenario, workers=1, drain_deadline=3.0,
                )
            )
        assert ack.startswith("draining")
        assert wire.strip_cache_field(answer) in set(
            _expected_lines(artifact, SETTINGS)
        )

    def test_sigterm_drains_and_exits_zero(self, artifact):
        """The CLI contract a supervisor relies on: SIGTERM → drain → exit 0."""
        env = dict(os.environ)
        repo_src = str(Path(__file__).resolve().parents[2] / "src")
        env["PYTHONPATH"] = repo_src + os.pathsep + env.get("PYTHONPATH", "")
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve", str(artifact),
                "--port", "0", "--workers", "2", "--deterministic",
            ],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True,
        )
        try:
            banner = process.stderr.readline()
            host, port = banner.split()[2].split(":")
            responses = []
            with ServeClient(host, int(port), timeout=30.0) as client:
                for mu, eps in SETTINGS:
                    responses.append(client.request(f"{mu}:{eps:g}"))
            process.send_signal(signal.SIGTERM)
            returncode = process.wait(timeout=30.0)
            stderr = process.stderr.read()
        finally:
            if process.poll() is None:  # pragma: no cover - cleanup
                process.kill()
                process.wait()
        assert returncode == 0, f"SIGTERM drain exited {returncode}: {stderr}"
        assert "drained" in stderr
        assert [wire.strip_cache_field(r) for r in responses] == \
            _expected_lines(artifact, SETTINGS)


# ----------------------------------------------------------------------
# Satellite: over-long request lines
# ----------------------------------------------------------------------
class TestOverlongLine:
    def test_overlong_line_answers_error_and_keeps_connection(self, artifact):
        async def scenario(server, host, port, reader, writer):
            writer.write(b"x" * 200_000 + b"\n")
            await writer.drain()
            lines = []
            # The oversized line may surface as one too-long error plus
            # parse errors for its later chunks; all inline, none fatal.
            for _ in range(8):
                line = (await asyncio.wait_for(
                    reader.readline(), timeout=5.0
                )).decode().strip()
                lines.append(line)
                if not line.startswith(wire.ERROR_PREFIX):
                    break
                writer.write(b"5:0.6\n")
                await writer.drain()
            return lines

        lines = asyncio.run(_with_server(artifact, scenario, workers=1))
        assert lines[0] == wire.format_error("request line too long")
        assert all(
            line.startswith(wire.ERROR_PREFIX) for line in lines[:-1]
        )
        # The connection survived: the follow-up request was answered.
        assert wire.strip_cache_field(lines[-1]) in set(
            _expected_lines(artifact, SETTINGS)
        )


# ----------------------------------------------------------------------
# Satellite: client failure wrapping + bounded retry
# ----------------------------------------------------------------------
class _StubServer(threading.Thread):
    """A scriptable one-shot TCP server for client failure-mode tests.

    ``behaviours`` is one callable per accepted connection; each receives
    the accepted socket and owns it.
    """

    def __init__(self, behaviours):
        super().__init__(daemon=True)
        self.behaviours = list(behaviours)
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.port = self.listener.getsockname()[1]

    def run(self):
        for behaviour in self.behaviours:
            conn, _ = self.listener.accept()
            try:
                behaviour(conn)
            finally:
                try:
                    conn.close()
                except OSError:
                    pass
        self.listener.close()


def _slam(conn):
    """Read one line, then close without answering (mid-request reset)."""
    conn.recv(1024)


def _echo_ok(conn):
    reader = conn.makefile("rb")
    while True:
        line = reader.readline()
        if not line:
            return
        conn.sendall(b"mu=5 epsilon=0.6 snapped=0.6 clusters=1 "
                     b"clustered=1 cores=1 cache=miss\n")


def _black_hole(conn):
    """Accept, read, never answer (timeout path)."""
    conn.recv(1024)
    time.sleep(5.0)


class TestServeClientErrors:
    def test_transport_failure_wrapped_with_context(self, artifact):
        stub = _StubServer([_slam])
        stub.start()
        with pytest.raises(ServeClientError) as info:
            with ServeClient("127.0.0.1", stub.port, timeout=5.0) as client:
                client.request("5:0.6")
        error = info.value
        assert error.host == "127.0.0.1" and error.port == stub.port
        assert error.request_line == "5:0.6"
        assert f"127.0.0.1:{stub.port}" in str(error)
        assert "5:0.6" in str(error)
        stub.join(timeout=5.0)

    def test_bounded_reconnect_retry_for_idempotent_requests(self):
        stub = _StubServer([_slam, _echo_ok])
        stub.start()
        with ServeClient("127.0.0.1", stub.port, timeout=5.0,
                         retries=1) as client:
            response = client.request("5:0.6")
        assert response.startswith("mu=5")
        stub.join(timeout=5.0)

    def test_control_lines_are_never_retried(self):
        stub = _StubServer([_slam, _echo_ok])
        stub.start()
        with ServeClient("127.0.0.1", stub.port, timeout=5.0,
                         retries=3) as client:
            with pytest.raises(ServeClientError) as info:
                client.request("!invalidate")
        assert info.value.request_line == "!invalidate"
        stub.join(timeout=5.0)

    def test_timeout_wrapped_with_pending_request(self):
        stub = _StubServer([_black_hole])
        stub.start()
        with pytest.raises(ServeClientError) as info:
            with ServeClient("127.0.0.1", stub.port, timeout=0.2) as client:
                client.request("3:0.45")
        assert info.value.request_line == "3:0.45"

    def test_refused_connection_wrapped(self):
        sacrificial = socket.create_server(("127.0.0.1", 0))
        port = sacrificial.getsockname()[1]
        sacrificial.close()
        with pytest.raises(ServeClientError, match="cannot connect"):
            ServeClient("127.0.0.1", port, timeout=1.0)


# ----------------------------------------------------------------------
# Satellite: control lines under degradation
# ----------------------------------------------------------------------
class TestControlLinesUnderDegradation:
    def test_invalidate_while_degraded_flips_fallback_generation(
        self, artifact, monkeypatch, tmp_path
    ):
        """The generation flip must reach the in-process fallback session."""
        import shutil

        swapped = tmp_path / "index.scanidx"
        shutil.copytree(artifact, swapped)
        graph = ScanIndex.load(swapped).graph
        deletion = (int(graph.edge_u[0]), int(graph.edge_v[0]))
        before = _expected_lines(swapped, [(3, 0.45)])[0]

        def refuse(self):
            raise OSError("fork refused by test")

        monkeypatch.setattr(_WorkerHandle, "spawn", refuse)

        async def scenario(server, host, port, reader, writer):
            stale = await _ask(reader, writer, "3:0.45")
            mutated = ScanIndex.load(swapped)
            mutated.apply_updates(deletions=[deletion])
            mutated.save(swapped)
            ack = await _ask(reader, writer, "!invalidate")
            fresh = await _ask(reader, writer, "3:0.45")
            return stale, ack, fresh, server.generation

        with pytest.warns(DegradedServingWarning):
            stale, ack, fresh, generation = asyncio.run(
                _with_server(swapped, scenario, workers=2, probe_interval=60.0)
            )
        after = _expected_lines(swapped, [(3, 0.45)])[0]
        assert after != before, "test update must change the answer"
        assert ack == "invalidated generation=1" and generation == 1
        assert wire.strip_cache_field(stale) == before
        assert wire.strip_cache_field(fresh) == after

    def test_stats_and_metrics_repeat_stable_across_degrade_recover(
        self, artifact, monkeypatch
    ):
        """Introspection is pure: asking twice never changes the answer."""
        _flaky_spawn(monkeypatch, failures=2)

        async def scenario(server, host, port, reader, writer):
            for mu, eps in SETTINGS[:3]:
                await _ask(reader, writer, f"{mu}:{eps:g}")
            degraded_stats = [
                await _ask(reader, writer, "!stats") for _ in range(2)
            ]
            degraded_metrics = [
                await _ask(reader, writer, "!metrics") for _ in range(2)
            ]
            await _await_recovery(server)
            for mu, eps in SETTINGS[:3]:
                await _ask(reader, writer, f"{mu}:{eps:g}")
            healthy_stats = [
                await _ask(reader, writer, "!stats") for _ in range(2)
            ]
            healthy_metrics = [
                await _ask(reader, writer, "!metrics") for _ in range(2)
            ]
            return degraded_stats, degraded_metrics, healthy_stats, \
                healthy_metrics

        with pytest.warns(DegradedServingWarning):
            degraded_stats, degraded_metrics, healthy_stats, \
                healthy_metrics = asyncio.run(
                    _with_server(
                        artifact, scenario, workers=2, probe_interval=0.05,
                    )
                )
        assert degraded_stats[0] == degraded_stats[1]
        assert degraded_metrics[0] == degraded_metrics[1]
        assert healthy_stats[0] == healthy_stats[1]
        assert healthy_metrics[0] == healthy_metrics[1]
        first = json.loads(degraded_stats[0])
        last = json.loads(healthy_stats[0])
        assert first["degraded"] is True and last["degraded"] is False
        counters = json.loads(healthy_metrics[0])["counters"]
        assert counters["serve.requests_total"] == 6
        assert counters["serve.recovered_total"] == 1
