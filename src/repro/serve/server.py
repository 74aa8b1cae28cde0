"""Concurrent serving front end: asyncio socket server over forked workers.

``ClusterServer`` listens on a TCP socket for newline-delimited
``MU:EPSILON`` requests (the exact wire format of the single-session
``repro serve`` loop; see :mod:`repro.serve.wire`) and dispatches each to
one of N forked worker processes.  Every worker holds a
:class:`~repro.serve.session.ClusterSession` over its own mmap of the same
saved artifact, so the answers are bit-identical to single-session serving
at any worker count.

Seven contracts define the tier:

Cache affinity
    A request is routed by hashing its snapped ``(μ, ε-rank)`` pair -- the
    session cache key -- to a fixed worker, so repeats of
    a setting always land where that setting's LRU entry lives.  Routing is
    deterministic and independent of arrival order or connection.

Deadlines and hedging
    Every request carries a budget of ``request_deadline`` seconds per
    dispatch attempt (default well under the 30 s supervision timeout).  A
    worker that does not answer within the deadline is *hedged around*: the
    request is re-issued to the next worker in ring order instead of
    waiting out the affinity worker -- a wedged worker can therefore never
    head-of-line-block its whole affinity bucket.  Replies are matched to
    requests by id, so a straggler's late answer is dropped (counted in
    ``serve.late_replies_total``), never mis-delivered.  A worker whose
    oldest unanswered request exceeds ``policy.task_timeout`` is declared
    wedged by a watchdog and killed + respawned.

Admission control and load shedding
    At most ``max_inflight`` requests are admitted concurrently, and at
    most ``max_queue_depth`` may be outstanding on one worker pipe.  Past
    the high-water mark the server answers ``error: overloaded (shed)``
    immediately instead of queueing unboundedly -- a bounded, observable
    answer (``serve.requests_shed_total``, ``serve.inflight`` gauge,
    per-worker queue-depth gauges) beats an unbounded queue collapsing.
    Control lines (``!stats``, ``!metrics``, ``!drain``) bypass admission:
    an overloaded tier must stay observable and drainable.

Supervision (the :mod:`repro.parallel.supervise` contract)
    A worker that dies (pipe EOF) is killed and respawned, and the request
    retried on the fresh worker up to ``policy.retries`` times; the session
    state is cache only, so a retry is always safe.

Circuit-breaker degradation and recovery
    A pool beyond saving -- respawn itself failing -- degrades the server
    to in-process serving with one structured
    :class:`DegradedServingWarning` (the circuit *opens*).  Degradation is
    a state, not a terminal flip: a background probe retries pool
    construction under exponential backoff (``probe_interval`` doubling up
    to ``PROBE_BACKOFF_CAP``); once a fresh pool spawns, a half-open phase
    routes one canary request through it before full fan-out is restored
    and a ``serve.recovered`` event fires.  Requests keep being answered
    in-process throughout -- availability never waits on recovery.

Generation flips
    The server owns a monotonic artifact generation, bumped by the
    ``!invalidate`` control line (sent after ``repro update`` swaps the
    artifact on disk).  Every request carries the current generation and a
    worker reloads the artifact before answering a newer one, so every
    response acked after the ``!invalidate`` ack reflects the updated
    artifact -- no stale-generation answers, on any worker.  The flip also
    reaches the in-process fallback session, so it holds under degradation.
    The front end loads the new artifact *before* bumping: an artifact that
    does not load gets one error reply and leaves the generation, and so
    every worker, on the old one.  Each reload, front end or worker, is one
    ``serve.reload`` span carrying ``side`` and ``generation``.

Graceful drain
    ``SIGTERM`` (wired by the CLI) or the ``!drain`` control line stops
    accepting new connections, lets in-flight requests finish inside
    ``drain_deadline`` seconds, flushes one final merged metric snapshot
    from the workers, then shuts the pool down cleanly -- the CLI exits 0.
    In-flight requests are never cancelled inside the deadline; idle
    connections are closed.

The chaos suite drives these paths through the registered fault sites
``serve.dispatch``, ``serve.worker.request`` / ``serve.worker.reload``
(worker side), ``serve.drain`` and ``serve.recovery.probe``; see
:mod:`repro.testing.faults`.
"""

from __future__ import annotations

import asyncio
import json
import math
import multiprocessing
import time
import warnings
from pathlib import Path

from .. import obs
from ..core.query import check_setting
from ..obs.metrics import merge_snapshots
from ..parallel.supervise import DegradedExecutionWarning, SupervisionPolicy
from ..testing.faults import fault_point
from . import wire
from .worker import worker_main


class DegradedServingWarning(DegradedExecutionWarning):
    """The worker pool could not be kept alive; serving fell back in-process."""


#: Supervision defaults for serving: interactive latencies, so a wedged
#: worker is declared dead far sooner than a batch task would be.
SERVING_POLICY = SupervisionPolicy(task_timeout=30.0, retries=2)

#: Per-attempt request deadline before dispatch hedges to the next worker.
DEFAULT_REQUEST_DEADLINE = 5.0
#: Server-wide concurrent-request high-water mark; above it requests shed.
DEFAULT_MAX_INFLIGHT = 64
#: Outstanding requests allowed on one worker pipe before it is skipped.
DEFAULT_MAX_QUEUE_DEPTH = 8
#: Seconds granted to in-flight requests when draining.
DEFAULT_DRAIN_DEADLINE = 5.0
#: First recovery-probe delay; doubles per failed probe up to the cap.
DEFAULT_PROBE_INTERVAL = 1.0
PROBE_BACKOFF_CAP = 30.0


def route(mu: int, rank: int, num_workers: int) -> int:
    """Deterministic worker index for a snapped ``(μ, ε-rank)`` setting.

    A Fibonacci-style integer mix keeps neighbouring settings from mapping
    to the same worker; the result depends only on the setting and the
    worker count, never on arrival order, which is what pins a setting's
    cache entry to one worker.
    """
    return int((mu * 2654435761 + rank * 40503) % num_workers)


class _WorkerHandle:
    """One forked worker process plus its pipe and reply multiplexing.

    Replies are matched to requests by id (``_pending``), so several
    requests may be outstanding on one pipe at once -- the worker answers
    them serially, the front end's deadline bounds how long anyone waits.
    ``outstanding`` keeps the send time of every unanswered request
    (including ones whose caller already hedged away) for the wedge
    watchdog; a reply with no waiting future is a straggler's late answer
    and is dropped.
    """

    def __init__(self, server: "ClusterServer", worker_id: int) -> None:
        self.server = server
        self.worker_id = worker_id
        self.process = None
        self.connection = None
        self.requests = 0
        self.restarts = 0
        self.epoch = 0
        self.dead = False
        self.outstanding: dict[int, float] = {}
        self.watchdog: asyncio.Task | None = None
        self._pending: dict[int, asyncio.Future] = {}

    @property
    def queue_depth(self) -> int:
        """Unanswered requests on this worker's pipe (the shedding signal)."""
        return len(self.outstanding)

    def spawn(self) -> None:
        """Fork the worker process and register its reply pipe."""
        # Fault site: an injected OSError here is exactly a failed fork,
        # the only trigger of the degrade -> probe -> recover circuit.
        fault_point("serve.worker.spawn", task=self.worker_id)
        context = self.server._mp_context
        parent_end, child_end = context.Pipe(duplex=True)
        process = context.Process(
            target=worker_main,
            args=(str(self.server.artifact_path), self.worker_id, child_end),
            kwargs={
                "cache_size": self.server.cache_size,
                "generation": self.server.generation,
                "trace_path": self.server._worker_trace_path(self.worker_id),
            },
            daemon=True,
        )
        process.start()
        child_end.close()
        self.process = process
        self.connection = parent_end
        self.epoch += 1
        self.dead = False
        self.outstanding = {}
        asyncio.get_running_loop().add_reader(parent_end.fileno(), self._on_readable)

    def _on_readable(self) -> None:
        try:
            message = self.connection.recv()
        except (EOFError, OSError):
            message = None
        if message is None or message[0] == "dead":
            # The pipe is gone (or the worker reported an unloadable
            # artifact): fail every waiter now and unregister the fd --
            # an EOF'd pipe stays readable forever and would spin the loop.
            self._teardown_pipe()
            return
        request_id = message[1]
        self.outstanding.pop(request_id, None)
        future = self._pending.pop(request_id, None)
        if future is None:
            # The caller hedged away before this answer arrived: count the
            # straggler and drop its bytes, never mis-deliver them.
            self.server._late_replies_total.inc()
        elif not future.done():
            future.set_result(message)

    def _teardown_pipe(self) -> None:
        """Unregister and close the pipe, failing every pending future."""
        self.dead = True
        if self.connection is not None:
            try:
                asyncio.get_running_loop().remove_reader(self.connection.fileno())
            except (RuntimeError, OSError):
                pass
            try:
                self.connection.close()
            except OSError:
                pass
            self.connection = None
        self.outstanding = {}
        pending, self._pending = self._pending, {}
        for future in pending.values():
            if not future.done():
                future.set_result(None)

    async def request(self, message: tuple, timeout: float):
        """Send one message and await its reply.

        Returns the reply tuple, or ``None`` when the worker is dead
        (pipe closed before or during the wait).  Raises
        :class:`asyncio.TimeoutError` when the worker is alive but has not
        answered within ``timeout`` -- the caller's cue to hedge; the
        request stays in ``outstanding`` so the watchdog can tell a
        straggler from a wedge.
        """
        if self.connection is None or self.dead:
            return None
        loop = asyncio.get_running_loop()
        request_id = message[1]
        future = loop.create_future()
        self._pending[request_id] = future
        self.outstanding[request_id] = loop.time()
        try:
            self.connection.send(message)
        except (OSError, ValueError):
            self._pending.pop(request_id, None)
            self.outstanding.pop(request_id, None)
            return None
        try:
            return await asyncio.wait_for(future, timeout)
        except asyncio.TimeoutError:
            # Abandon the wait but not the bookkeeping: `outstanding`
            # keeps the send time so the watchdog can reap a true wedge.
            self._pending.pop(request_id, None)
            raise

    def kill(self) -> None:
        """Tear the worker down unconditionally (restart or shutdown path)."""
        self._teardown_pipe()
        if self.watchdog is not None:
            if self.watchdog is not asyncio.current_task():
                self.watchdog.cancel()
            self.watchdog = None
        if self.process is not None:
            if self.process.is_alive():
                self.process.terminate()
            self.process.join(timeout=5.0)
            if self.process.is_alive():  # pragma: no cover - defensive
                self.process.kill()
                self.process.join(timeout=5.0)
            self.process = None

    async def stop(self) -> None:
        """Polite shutdown: ask the loop to exit, then reap the process."""
        stopped = False
        if self.connection is not None and not self.dead:
            try:
                self.connection.send(("stop",))
                stopped = True
            except (OSError, ValueError):
                pass
        if stopped and self.process is not None:
            # Grace period before the unconditional teardown: the worker's
            # exit path syncs its session counters and writes the final
            # trace snapshot, which a premature terminate() would truncate.
            deadline = asyncio.get_running_loop().time() + 2.0
            while (
                self.process.is_alive()
                and asyncio.get_running_loop().time() < deadline
            ):
                await asyncio.sleep(0.01)
        self.kill()


class ClusterServer:
    """Multi-worker serving front end over one saved index artifact."""

    def __init__(
        self,
        artifact_path: str | Path,
        *,
        workers: int = 2,
        cache_size: int = 256,
        policy: SupervisionPolicy | None = None,
        request_deadline: float = DEFAULT_REQUEST_DEADLINE,
        max_inflight: int = DEFAULT_MAX_INFLIGHT,
        max_queue_depth: int = DEFAULT_MAX_QUEUE_DEPTH,
        drain_deadline: float = DEFAULT_DRAIN_DEADLINE,
        probe_interval: float = DEFAULT_PROBE_INTERVAL,
    ) -> None:
        if workers < 1:
            raise ValueError(f"need at least one worker, got {workers}")
        if not (math.isfinite(request_deadline) and request_deadline > 0):
            raise ValueError(f"request deadline must be positive, got {request_deadline}")
        if not (math.isfinite(probe_interval) and probe_interval > 0):
            raise ValueError(f"probe interval must be positive, got {probe_interval}")
        if not (math.isfinite(drain_deadline) and drain_deadline >= 0):
            raise ValueError(f"drain deadline must be >= 0, got {drain_deadline}")
        if max_inflight < 1:
            raise ValueError(f"need max_inflight >= 1, got {max_inflight}")
        if max_queue_depth < 1:
            raise ValueError(f"need max_queue_depth >= 1, got {max_queue_depth}")
        self.artifact_path = Path(artifact_path)
        self.num_workers = int(workers)
        self.cache_size = int(cache_size)
        self.policy = policy if policy is not None else SERVING_POLICY
        self.request_deadline = float(request_deadline)
        self.max_inflight = int(max_inflight)
        self.max_queue_depth = int(max_queue_depth)
        self.drain_deadline = float(drain_deadline)
        self.probe_interval = float(probe_interval)
        self.generation = 0
        self.degraded = False
        self.draining = False
        self.served = 0
        self.final_snapshot: dict | None = None
        self._mp_context = multiprocessing.get_context("fork")
        self._workers: list[_WorkerHandle] = []
        self._request_counter = 0
        self._inflight = 0
        self._restarts_count = 0
        self._server: asyncio.AbstractServer | None = None
        self._connections: set[asyncio.Task] = set()
        self._fallback_session = None
        self._probe_task: asyncio.Task | None = None
        self._drain_task: asyncio.Task | None = None
        self._drained: asyncio.Event | None = None
        # The front end's own mmap of the artifact: snapping ranks for the
        # affinity hash, and the in-process fallback when the pool is gone.
        from ..core.index import ScanIndex
        from .snapping import EpsilonSnapper

        self._index = ScanIndex.load(self.artifact_path)
        self._snapper = EpsilonSnapper.from_index(self._index)
        # Metric handles resolved once: the per-request cost of always-on
        # metrics is one clock pair, one histogram bisect, one counter add.
        self._request_seconds = obs.histogram("serve.request_seconds")
        self._requests_total = obs.counter("serve.requests_total")
        self._errors_total = obs.counter("serve.errors_total")
        self._restarts_total = obs.counter("serve.worker_restarts_total")
        self._degraded_requests_total = obs.counter("serve.requests_degraded_total")
        self._requests_shed_total = obs.counter("serve.requests_shed_total")
        self._hedges_total = obs.counter("serve.hedges_total")
        self._late_replies_total = obs.counter("serve.late_replies_total")
        self._recovered_total = obs.counter("serve.recovered_total")
        self._inflight_gauge = obs.gauge("serve.inflight")

    def _worker_trace_path(self, worker_id: int) -> str | None:
        """Per-worker trace file next to the front end's (or ``None``).

        Workers cannot share the front end's JSONL file -- concurrent line
        writes from forked processes interleave -- so worker ``k`` traces
        to ``<front-end-path>.worker<k>``.
        """
        path = obs.tracer().path
        return None if path is None else f"{path}.worker{worker_id}"

    # -- lifecycle ---------------------------------------------------------

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> tuple[str, int]:
        """Spawn the workers and start accepting connections.

        Returns the bound ``(host, port)`` (``port=0`` binds an ephemeral
        port, useful for tests and CI).
        """
        self._drained = asyncio.Event()
        for worker_id in range(self.num_workers):
            handle = _WorkerHandle(self, worker_id)
            try:
                handle.spawn()
            except OSError as error:
                self._degrade(f"worker {worker_id} failed to spawn: {error!r}")
                break
            self._workers.append(handle)
        self._server = await asyncio.start_server(self._handle_connection, host, port)
        bound = self._server.sockets[0].getsockname()
        return bound[0], bound[1]

    async def close(self) -> None:
        """Stop accepting, then stop every worker.  Idempotent."""
        for task in (self._probe_task, *[h.watchdog for h in self._workers]):
            if task is not None and not task.done():
                task.cancel()
        self._probe_task = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        # Retire open connection handlers while the loop is still running --
        # tasks alive at loop shutdown surface as CancelledError noise.
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(*self._connections, return_exceptions=True)
        self._connections.clear()
        for handle in self._workers:
            await handle.stop()
        self._workers = []

    async def serve_forever(self) -> None:
        if self._server is None:
            raise RuntimeError("server not started")
        await self._server.serve_forever()

    # -- graceful drain ----------------------------------------------------

    def request_drain(self) -> asyncio.Task:
        """Begin a graceful drain (idempotent); returns the drain task.

        Callable from a signal handler: all work happens in the returned
        task on the running loop.
        """
        if self._drain_task is None:
            self._drain_task = asyncio.ensure_future(self._drain())
        return self._drain_task

    async def drain(self) -> dict | None:
        """Drain gracefully and return the final merged metric snapshot."""
        return await self.request_drain()

    async def _drain(self) -> dict | None:
        self.draining = True
        obs.counter("serve.drains_total").inc()
        obs.event("serve.drain_start", inflight=self._inflight)
        # Fault site: chaos delays/crashes the drain window deterministically.
        fault_point("serve.drain")
        if self._probe_task is not None and not self._probe_task.done():
            self._probe_task.cancel()
            self._probe_task = None
        # Stop accepting new connections first; existing connections keep
        # their in-flight request, and their handler loops exit at the next
        # response boundary (see _handle_connection).
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        loop = asyncio.get_running_loop()
        deadline = loop.time() + self.drain_deadline
        while self._inflight > 0 and loop.time() < deadline:
            await asyncio.sleep(0.01)
        forced = self._inflight > 0
        # Flush one final merged snapshot while the workers still live, so
        # the fleet totals as of the drain survive the pool teardown.
        try:
            self.final_snapshot = await self.metrics_snapshot()
        except Exception:  # pragma: no cover - introspection must not block exit
            self.final_snapshot = None
        obs.event(
            "serve.drain_complete", inflight=self._inflight, forced=forced
        )
        await self.close()
        if self._drained is not None:
            self._drained.set()
        return self.final_snapshot

    # -- request path ------------------------------------------------------

    async def _handle_connection(self, reader, writer) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
        try:
            while True:
                try:
                    raw = await reader.readline()
                except ValueError:
                    # readline() raises ValueError (from LimitOverrunError)
                    # on a >64 KiB line with no newline and clears its
                    # buffer: the request is unusable but the connection is
                    # fine, so answer inline and keep serving.  Chunks of
                    # the oversized line still in flight surface as parse
                    # errors on subsequent reads -- also inline, also
                    # non-fatal.
                    self._errors_total.inc()
                    writer.write(
                        (wire.format_error("request line too long") + "\n")
                        .encode("utf-8")
                    )
                    await writer.drain()
                    continue
                if not raw:
                    break
                line = raw.decode("utf-8", errors="replace").strip()
                if not line or line.startswith("#"):
                    continue
                if line.startswith(wire.CONTROL_PREFIX):
                    response = await self._handle_control(line)
                else:
                    response = await self._handle_request(line)
                writer.write((response + "\n").encode("utf-8"))
                await writer.drain()
                if self.draining:
                    # Response boundary during a drain: this connection's
                    # in-flight work is done, close it out.
                    break
        except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
            pass
        except asyncio.CancelledError:
            # Cancelled by close(): the connection is being retired, which
            # is an orderly outcome, not an error to propagate.
            pass
        finally:
            if task is not None:
                self._connections.discard(task)
            # close() without wait_closed(): awaiting the handshake here
            # leaves the handler task parked in the finally when the event
            # loop shuts down, which surfaces as spurious CancelledError
            # noise; the transport finishes closing on its own.
            writer.close()

    async def _handle_control(self, line: str) -> str:
        command = line[len(wire.CONTROL_PREFIX):].strip().lower()
        if command == "invalidate":
            return await self._invalidate()
        if command == "stats":
            return json.dumps(await self.stats_full(), sort_keys=True)
        if command == "metrics":
            return json.dumps(await self.metrics_snapshot(), sort_keys=True)
        if command == "drain":
            self.request_drain()
            return f"draining deadline={self.drain_deadline:g}"
        return wire.format_error(f"unknown control command {line!r}")

    async def _handle_request(self, line: str) -> str:
        started = time.perf_counter()
        try:
            mu, epsilon = wire.parse_request(line)
            check_setting(mu, epsilon)
        except ValueError as error:
            self._errors_total.inc()
            return wire.format_error(error)
        # Admission control: past the high-water mark the honest answer is
        # an immediate structured refusal, not an unbounded queue.
        if self._inflight >= self.max_inflight:
            return self._shed("server inflight high-water mark")
        self.served += 1
        self._requests_total.inc()
        self._inflight += 1
        self._inflight_gauge.set(self._inflight)
        try:
            if self.degraded or not self._workers:
                response = self._serve_in_process(mu, epsilon)
            else:
                rank = self._snapper.rank(epsilon)
                # Unconditional span: on this path one shared no-op context
                # manager is noise against the pipe round trip, so no
                # obs.on() gate needed.
                with obs.span("serve.request", mu=mu, rank=rank):
                    response = await self._dispatch(mu, epsilon, rank)
        finally:
            self._inflight -= 1
            self._inflight_gauge.set(self._inflight)
        self._request_seconds.observe(time.perf_counter() - started)
        return response

    def _shed(self, reason: str) -> str:
        self._requests_shed_total.inc()
        obs.event("serve.shed", reason=reason)
        return wire.format_error("overloaded (shed)")

    async def _attempt(self, handle: _WorkerHandle, mu: int, epsilon: float):
        """One dispatch attempt; returns ``(response_or_None, outcome)``.

        ``outcome`` is ``"ok"`` (response ready), ``"timeout"`` (hedge) or
        ``"dead"`` (worker gone / pipe broken / dispatch fault).
        """
        self._request_counter += 1
        message = ("serve", self._request_counter, self.generation, mu, epsilon)
        try:
            # Fault site: chaos arms transient front-end dispatch failures.
            fault_point("serve.dispatch")
            reply = await handle.request(
                message, min(self.request_deadline, self.policy.task_timeout)
            )
        except asyncio.TimeoutError:
            return None, "timeout"
        except (OSError, ValueError):
            return None, "dead"
        if reply is None or reply[0] not in ("ok", "error"):
            return None, "dead"
        if reply[0] == "error":
            return wire.format_error(reply[2]), "ok"
        return reply[2], "ok"

    def _respawn(self, handle: _WorkerHandle) -> bool:
        """Kill + refork one worker; opens the circuit when the fork fails."""
        handle.kill()
        try:
            handle.spawn()
        except OSError as error:
            self._degrade(
                f"worker {handle.worker_id} could not be respawned: {error!r}"
            )
            return False
        handle.restarts += 1
        self._restarts_count += 1
        self._restarts_total.inc()
        obs.event("serve.worker.restart", worker=handle.worker_id)
        return True

    async def _dispatch(self, mu: int, epsilon: float, rank: int) -> str:
        """Deadline-bounded dispatch with hedging and bounded respawn-retry.

        Workers are tried in ring order starting at the affinity worker;
        a deadline expiry hedges to the next one (arming the wedge
        watchdog on the slow worker), a dead worker is respawned and
        retried up to ``policy.retries`` times across the whole request,
        and a fully saturated ring sheds.  The in-process fallback is the
        final backstop, so every admitted request gets an answer.
        """
        workers = self._workers
        count = len(workers)
        primary = route(mu, rank, count)
        respawns_left = max(self.policy.retries, 0)
        saturated = 0
        tried = 0
        for hop in range(count):
            if self._workers is not workers:
                # The pool was replaced (recovery) mid-request; the old
                # handles are dead.  Answer in-process rather than racing
                # the new pool's spawn.
                break
            handle = workers[(primary + hop) % count]
            if handle.queue_depth >= self.max_queue_depth:
                saturated += 1
                continue
            if hop > 0:
                self._hedges_total.inc()
                obs.event(
                    "serve.hedge", mu=mu, rank=rank, hop=hop,
                    worker=handle.worker_id,
                )
            tried += 1
            response, outcome = await self._attempt(handle, mu, epsilon)
            while (
                outcome == "dead"
                and respawns_left > 0
                and self._workers is workers
            ):
                respawns_left -= 1
                if not self._respawn(handle):
                    return self._serve_in_process(mu, epsilon)
                response, outcome = await self._attempt(handle, mu, epsilon)
            if outcome == "ok":
                handle.requests += 1
                return response
            if outcome == "timeout":
                # The affinity (or hedged) worker blew the deadline: leave
                # its request outstanding, arm the watchdog that reaps a
                # true wedge at task_timeout, and hedge onward.
                self._watch(handle)
                continue
            # outcome == "dead" with retries exhausted: try the next worker.
        if tried == 0 and saturated > 0:
            return self._shed("every worker queue at max depth")
        return self._serve_in_process(mu, epsilon)

    # -- wedge watchdog ----------------------------------------------------

    def _watch(self, handle: _WorkerHandle) -> None:
        """Arm (once) the watchdog that reaps ``handle`` if it is wedged."""
        if handle.watchdog is not None and not handle.watchdog.done():
            return
        handle.watchdog = asyncio.ensure_future(
            self._reap_if_wedged(handle, handle.epoch)
        )

    async def _reap_if_wedged(self, handle: _WorkerHandle, epoch: int) -> None:
        """Kill + respawn ``handle`` when its oldest request exceeds task_timeout.

        A straggler that answers (late replies clear ``outstanding``)
        disarms the watchdog naturally; only a worker that stays silent for
        the full supervision timeout is declared wedged.
        """
        loop = asyncio.get_running_loop()
        while handle.epoch == epoch and handle.outstanding:
            overdue = loop.time() - min(handle.outstanding.values())
            if overdue >= self.policy.task_timeout:
                obs.event("serve.worker.wedged", worker=handle.worker_id)
                if handle in self._workers:
                    self._respawn(handle)
                else:  # pragma: no cover - pool replaced while watching
                    handle.kill()
                return
            await asyncio.sleep(max(self.policy.task_timeout - overdue, 0.005))

    # -- degradation, recovery and generations ------------------------------

    def _degrade(self, reason: str) -> None:
        # The counter and trace event fire on every trigger -- unlike the
        # warning, which is once per server -- so post-hoc inspection sees
        # how often the pool failed, not just that it ever did.
        obs.counter("serve.degraded_total").inc()
        obs.event("serve.degraded", reason=reason)
        if self.degraded:
            return
        self.degraded = True
        warnings.warn(
            DegradedServingWarning(
                f"serving degraded to in-process: {reason}; "
                f"answers remain bit-identical, concurrency is gone until "
                f"the recovery probe revives the pool"
            ),
            stacklevel=2,
        )
        self._start_probe()

    def _start_probe(self) -> None:
        """Launch the background recovery probe (no-op outside a loop)."""
        if self.draining:
            return
        try:
            loop = asyncio.get_running_loop()
        except RuntimeError:  # pragma: no cover - constructed outside a loop
            return
        if self._probe_task is None or self._probe_task.done():
            self._probe_task = loop.create_task(self._probe_loop())

    async def _probe_loop(self) -> None:
        """Retry pool construction under exponential backoff until it heals."""
        attempt = 0
        while self.degraded and not self.draining:
            delay = min(self.probe_interval * (2 ** attempt), PROBE_BACKOFF_CAP)
            attempt += 1
            await asyncio.sleep(delay)
            obs.counter("serve.probe_attempts_total").inc()
            try:
                # Fault site: chaos pins the circuit open deterministically.
                fault_point("serve.recovery.probe")
                await self._attempt_recovery()
            except (OSError, MemoryError, asyncio.TimeoutError) as error:
                obs.event("serve.probe_failed", attempt=attempt, reason=repr(error))

    async def _attempt_recovery(self) -> None:
        """One closed→half-open→closed circuit transition attempt.

        Spawns a complete fresh pool, routes a canary request through it
        (the half-open phase), and only then swaps it in and clears the
        degraded flag.  Any failure tears the candidate pool down and
        leaves the circuit open for the next probe.
        """
        fresh: list[_WorkerHandle] = []
        try:
            for worker_id in range(self.num_workers):
                handle = _WorkerHandle(self, worker_id)
                handle.spawn()  # OSError propagates: circuit stays open
                fresh.append(handle)
            # Half-open: one canary request must round-trip before the
            # revived pool sees client traffic.  (2, 1.0) is always valid
            # and near-free: ε=1.0 snaps above every stored boundary.
            self._request_counter += 1
            canary = ("serve", self._request_counter, self.generation, 2, 1.0)
            reply = await fresh[0].request(
                canary, min(self.request_deadline, self.policy.task_timeout)
            )
            if reply is None or reply[0] != "ok":
                raise OSError(f"canary request failed: {reply!r}")
        except BaseException:
            for handle in fresh:
                handle.kill()
            raise
        retired, self._workers = self._workers, fresh
        for handle in retired:
            handle.kill()
        self.degraded = False
        self._recovered_total.inc()
        obs.event("serve.recovered", workers=len(fresh))

    def _serve_in_process(self, mu: int, epsilon: float) -> str:
        self._degraded_requests_total.inc()
        if self._fallback_session is None:
            self._fallback_session = self._index.session(cache_size=self.cache_size)
        try:
            result = self._fallback_session.serve(mu, epsilon)
        except ValueError as error:
            return wire.format_error(error)
        return wire.format_response(result)

    async def _invalidate(self) -> str:
        """Bump the generation after an on-disk artifact swap; the reply line.

        The server reloads its own mmap (routing ranks + fallback session)
        first, and bumps the generation only once that load succeeded;
        workers reload lazily, on their first request at the new generation
        -- which is every request dispatched after this method returns,
        because the bump happens before the ack is written.  The
        fallback-session reset is what keeps the flip honest under
        degradation: the in-process session serves the new artifact too.

        An artifact that does not load is answered with one error line and
        changes nothing: the generation, the old mmap and every worker stay
        as they were, so no worker is sent to reload what cannot load.  The
        reload is one ``serve.reload`` span (``side="front"``); it runs on
        the event loop, and it is a load plus an O(1) snapper wrap.
        """
        from ..core.index import ScanIndex
        from ..storage.format import ArtifactFormatError
        from .snapping import EpsilonSnapper

        try:
            with obs.span("serve.reload", side="front", generation=self.generation + 1):
                index = ScanIndex.load(self.artifact_path)
        except (ArtifactFormatError, OSError) as error:
            self._errors_total.inc()
            return wire.format_error(
                f"invalidate failed, still serving generation {self.generation}: {error}"
            )
        self.generation += 1
        self._index = index
        self._snapper = EpsilonSnapper.from_index(index)
        self._fallback_session = None
        return f"invalidated generation={self.generation}"

    # -- introspection -----------------------------------------------------

    def stats(self) -> dict:
        """Routing, health, admission and generation counters (front-end view)."""
        return {
            "workers": self.num_workers,
            "generation": self.generation,
            "degraded": self.degraded,
            "draining": self.draining,
            "served": self.served,
            "inflight": self._inflight,
            "shed_total": self._requests_shed_total.value,
            "restarts_total": self._restarts_count,
            "request_deadline": self.request_deadline,
            "max_inflight": self.max_inflight,
            "max_queue_depth": self.max_queue_depth,
            "per_worker": [
                {
                    "worker": handle.worker_id,
                    "requests": handle.requests,
                    "restarts": handle.restarts,
                    "queue_depth": handle.queue_depth,
                    "alive": bool(handle.process is not None and handle.process.is_alive()),
                }
                for handle in self._workers
            ],
        }

    async def _gather_from_workers(self, kind: str) -> list:
        """One ``(kind, request_id)`` round trip per live worker, in order.

        Returns the reply payload per worker, ``None`` for a worker that is
        gone or times out -- introspection must never take the tier down,
        so failures degrade to missing data rather than restarts.
        """
        replies = []
        for handle in self._workers:
            if handle.connection is None or handle.dead:
                replies.append(None)
                continue
            self._request_counter += 1
            try:
                reply = await handle.request(
                    (kind, self._request_counter), self.policy.task_timeout
                )
            except (asyncio.TimeoutError, OSError, ValueError):
                reply = None
            replies.append(
                reply[2] if reply is not None and reply[0] == "ok" else None
            )
        return replies

    async def stats_full(self) -> dict:
        """The ``!stats`` answer: front-end counters plus per-worker LRUs.

        Each worker's entry gains an ``lru`` block -- its session's
        served/hit counters and cache stats, fetched over the stats channel
        -- or ``None`` when the worker could not answer.
        """
        stats = self.stats()
        for entry, lru in zip(
            stats["per_worker"], await self._gather_from_workers("stats")
        ):
            entry["lru"] = lru
        return stats

    async def metrics_snapshot(self) -> dict:
        """The ``!metrics`` answer: front-end registry + all worker registries.

        Workers snapshot their own registries (after syncing session
        counters) and the snapshots are folded together with
        :func:`~repro.obs.metrics.merge_snapshots` -- a pure merge over
        copies, so repeated ``!metrics`` calls never double-count.
        """
        if self._fallback_session is not None:
            self._fallback_session.sync_metrics()
        for handle in self._workers:
            obs.gauge(f"serve.queue_depth.worker{handle.worker_id}").set(
                handle.queue_depth
            )
        merged = obs.metrics().snapshot()
        for snapshot in await self._gather_from_workers("metrics"):
            if snapshot is not None:
                merged = merge_snapshots(merged, snapshot)
        return merged
