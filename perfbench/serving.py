"""``serve-hot`` and ``serve-churn``: traffic against a real server process.

Both workloads run ``repro serve --port 0 --workers 2 --deterministic``
over the artifact their set-up built, and drive it with closed-loop client
connections from this process.  Set-up -- build → save → verified open →
grid sweep → server start → warm-up -- is repeated ``SETUP_REPEATS``
times; ``setup_s`` is its median, and ``build_s`` / ``open_s`` /
``sweep_s`` come from the same repetitions.

``serve-hot``
    Two connections replay a Zipf(1.1) stream over 64 exact settings that
    warm-up has already cached, so every timed request is a hit and its
    cost is transport.  After the window, ``UPDATE_CYCLES`` update batches
    (apply → save → ``!invalidate``) time ``update_p50_ms`` on the idle
    server and prove the generation flip reaches every worker's cache.
    Runnable, but not in ``BENCHMARK.json`` (see ``run.WORKLOADS``).
``serve-churn``
    One reader connection sends reads that each snap to their own
    similarity rank, so every read misses, while ``updater.py`` applies one
    40-op batch per second in its own process.
"""

from __future__ import annotations

import json
import queue
import subprocess
import sys
import threading
import time
from contextlib import nullcontext
from pathlib import Path

import numpy as np

from repro import ScanIndex
from repro.serve import wire
from repro.serve.client import ServeClient, ServeClientError, replay

import inputs
import pipeline
from measure import add_query_buckets, time_buckets

#: Full set-ups per run (the last one stays up for the window); two keep
#: the serving runs inside the benchmark's time budget.
SETUP_REPEATS = 2
#: Verified opens per set-up: each is one ``open_s`` sample.
OPENS_PER_SETUP = 4
SERVER_WORKERS = 2
HOST = "127.0.0.1"
START_TIMEOUT_S = 60.0
#: Post-window update cycles on ``serve-hot``.
UPDATE_CYCLES = 5
#: After the update cycles every fourth hot key (16, all cached before the
#: flip) is asked again and checked against the updated artifact.
POST_UPDATE_STEP = 4
#: Hot requests replayed in-process for the session hit/miss layer metrics.
SESSION_REPLAY = 2000
#: Churn reads replayed in-process for the query and session layer metrics.
CHURN_REPLAY = 40
#: Churn reads generated per run (far more than a window can send).
CHURN_READS = 20000
#: Churn warm-up reads, taken from the end of the read list.
CHURN_WARM = 10


class ServerProcess:
    """One ``repro serve --port 0`` subprocess, stopped on every path."""

    def __init__(self, ctx, artifact: Path) -> None:
        self.ctx = ctx
        self.artifact = artifact
        self.process = None
        self.port = None
        self._stderr: list[str] = []
        self._reader = None

    def start(self) -> None:
        command = [
            sys.executable, "-m", "repro", "serve", str(self.artifact),
            "--port", "0", "--workers", str(SERVER_WORKERS), "--deterministic",
        ]
        self.process = subprocess.Popen(
            command, cwd=self.ctx.root, env=self.ctx.env, stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        )
        banner: queue.Queue = queue.Queue()

        def drain() -> None:
            for line in self.process.stderr:
                self._stderr.append(line.rstrip())
                if line.startswith("listening on"):
                    banner.put(line)
            banner.put(None)

        self._reader = threading.Thread(target=drain, daemon=True)
        self._reader.start()
        try:
            line = banner.get(timeout=START_TIMEOUT_S)
        except queue.Empty:
            line = None
        if line is None:
            self.stop()
            raise RuntimeError("server did not start: " + " | ".join(self._stderr[-5:]))
        self.port = int(line.split()[2].rsplit(":", 1)[1])

    def stop(self) -> None:
        if self.process is None:
            return
        if self.process.poll() is None:
            self.process.terminate()  # SIGTERM: graceful drain, exit 0
            try:
                self.process.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        if self._reader is not None:
            self._reader.join(timeout=5)
        self.process = None


def request_line(mu: int, epsilon: float) -> str:
    return f"{mu}:{epsilon!r}"


def control(port: int, command: str) -> str:
    with ServeClient(HOST, port) as client:
        return client.request(f"!{command}")


def server_counters(port: int) -> dict:
    """``!stats`` with the merged ``!metrics`` snapshot under ``metrics``."""
    stats = json.loads(control(port, "stats"))
    stats["metrics"] = json.loads(control(port, "metrics"))
    return stats


def closed_loop(port, lines, keys, deadline, stamped, seen, errors) -> None:
    """One connection sending ``lines[keys[i]]`` in turn until ``deadline``.

    Appends ``(finish time, latency)`` to ``stamped`` and ``(key, response)``
    to ``seen``; transport failures land in ``errors``.
    """
    client = None
    try:
        client = ServeClient(HOST, port)
        i = 0
        while time.perf_counter() < deadline:
            key = keys[i % len(keys)]
            i += 1
            started = time.perf_counter()
            response = client.request(lines[key])
            finished = time.perf_counter()
            stamped.append((finished, finished - started))
            seen.append((key, response))
    except ServeClientError as error:
        errors.append(f"transport: {error}")
    finally:
        if client is not None:
            client.close()


class _ServeWorkload:
    """Set-up, traffic windows and counter deltas shared by both serving workloads."""

    name = ""
    subwindow_s: float  # width of a traffic window's sub-windows (see ``measure``)

    def __init__(self, ctx) -> None:
        self.ctx = ctx
        self.artifact = ctx.workdir / f"{self.name}.scanidx"
        self.server = ServerProcess(ctx, self.artifact)

    def first_setting(self) -> tuple[int, float]:
        raise NotImplementedError

    def grid(self) -> list[tuple[int, float]]:
        raise NotImplementedError

    def warm(self) -> None:
        raise NotImplementedError

    def setup(self) -> None:
        ctx = self.ctx
        for repeat in range(SETUP_REPEATS):
            # In a traced run the last repetition carries the layer timers;
            # the others stay untraced so the remainders have a baseline.
            last = repeat == SETUP_REPEATS - 1
            layers = ctx.layers if last else None
            started = time.perf_counter()
            opens = []
            with layers.installed() if layers is not None else nullcontext():
                self.index, build_s = pipeline.build(ctx.edge_path, self.artifact, layers)
                for _ in range(OPENS_PER_SETUP):
                    self.loaded, self.first_line, open_s = pipeline.open_session(
                        self.artifact, self.first_setting(), layers
                    )
                    opens.append(open_s)
                self.clusterings, sweep_s = pipeline.sweep(self.loaded, self.grid())
                if layers is not None:
                    layers.standalone_calls(self.artifact, self.index.graph.num_arcs)
            self.server.start()
            self.warm()
            if layers is None:
                ctx.samples.add("setup_s", time.perf_counter() - started)
                ctx.samples.add("build_s", build_s)
                ctx.samples.extend("open_s", opens)
                ctx.samples.add("sweep_s", sweep_s)
            else:
                layers.sharing_ratio(self.loaded, self.grid(), sweep_s)
            if not last:
                self.server.stop()

    def traffic(self, seconds: float, layers, connections) -> list:
        """Run ``connections`` closed loops for ``seconds``; record sub-window stats.

        Each entry of ``connections`` is ``(lines, keys)``.  Returns every
        ``(key, response)`` seen; transport errors are recorded as failures.
        """
        before = server_counters(self.server.port) if layers is not None else None
        stamped, seen, errors = [], [], []
        started = time.perf_counter()
        deadline = started + seconds
        loops = [
            threading.Thread(target=closed_loop, args=(
                self.server.port, lines, keys, deadline, stamped, seen, errors))
            for lines, keys in connections
        ]
        for loop in loops:
            loop.start()
        for loop in loops:
            loop.join()
        ended = time.perf_counter()
        if layers is not None:
            self.counter_deltas(before, server_counters(self.server.port))
        prefix = "" if layers is None else "traced."
        add_query_buckets(self.ctx.samples,
                          time_buckets(stamped, started, ended, self.subwindow_s), prefix)
        for error in errors:
            self.ctx.checks.fail(f"{self.name}: {error}")
        return seen

    def counter_deltas(self, before: dict, after: dict) -> None:
        """Routing, cache and health counters over a window (traced runs)."""
        samples = self.ctx.samples
        pairs = list(zip(before["per_worker"], after["per_worker"]))

        def lru_delta(field):
            return sum((b["lru"] or {}).get(field, 0) - (a["lru"] or {}).get(field, 0)
                       for a, b in pairs)

        def counter_delta(name):
            return (after["metrics"]["counters"].get(name, 0)
                    - before["metrics"]["counters"].get(name, 0))

        requests = [b["requests"] - a["requests"] for a, b in pairs]
        served = lru_delta("served")
        samples.add("serve.routing.imbalance", max(requests) / max(min(requests), 1))
        samples.add("serve.cache.hit_rate", lru_delta("cache_hits") / served if served else 0.0)
        samples.add("serve.worker.reloads", counter_delta("serve.worker.reloads_total"))
        samples.add("serve.hedges_total", counter_delta("serve.hedges_total"))
        samples.add("serve.shed_total", after["shed_total"] - before["shed_total"])
        samples.add("serve.restarts_total", after["restarts_total"] - before["restarts_total"])

    def close(self) -> None:
        self.server.stop()


class ServeHot(_ServeWorkload):
    name = "serve-hot"
    threads = 2  # client connections
    subwindow_s = 1.0  # ~5000 requests: each sub-window holds its own p99

    def __init__(self, ctx) -> None:
        super().__init__(ctx)
        self.responses: list = []

    def first_setting(self):
        return inputs.hot_grid()[0]

    def grid(self):
        return inputs.hot_grid()

    def warm(self) -> None:
        """Ask every key once over both connections (filling each worker's
        LRU in parallel), then check that repeats hit."""
        lines = [request_line(mu, eps) for mu, eps in self.grid()]
        loops = [
            threading.Thread(target=replay, args=(HOST, self.server.port, lines[t::self.threads]))
            for t in range(self.threads)
        ]
        for loop in loops:
            loop.start()
        for loop in loops:
            loop.join()
        for response in replay(HOST, self.server.port, lines):
            self.ctx.checks.attempt()
            self.ctx.checks.expect(response.endswith("cache=hit"),
                                   f"serve-hot: warm-up repeat missed: {response!r}")

    def window(self, seconds: float, layers=None) -> None:
        lines = [request_line(mu, eps) for mu, eps in self.grid()]
        stream = inputs.zipf_stream(self.ctx.seed, len(lines), 1 << 20)
        self.responses += self.traffic(seconds, layers, [
            (lines, stream[t::self.threads]) for t in range(self.threads)
        ])

    def oracle(self) -> None:
        """Every response equals one session's answer; updates flip every cache."""
        checks = self.ctx.checks
        grid = self.grid()
        reference = [self.first_line] + pipeline.served_lines(self.loaded, grid[1:])
        answers: dict = {}
        for key, response in self.responses:
            answers.setdefault(int(key), set()).add(wire.strip_cache_field(response))
        checks.attempt(len(self.responses))
        for key, lines in answers.items():
            checks.expect(lines == {reference[key]},
                          f"serve-hot: {grid[key]} answered {sorted(lines)[:2]}, "
                          f"expected {reference[key]!r}")
        for setting, clustering, line in zip(grid, self.clusterings, reference):
            checks.attempt()
            checks.expect(f"clusters={clustering.num_clusters} " in line,
                          f"serve-hot: sweep disagrees with the session at {setting}")
        self.update_cycles()

    def update_cycles(self) -> None:
        checks, layers = self.ctx.checks, self.ctx.layers
        rng = np.random.default_rng([self.ctx.seed, 5])
        for _ in range(UPDATE_CYCLES):
            edge_u, edge_v = self.index.graph.edge_list()
            batch = inputs.update_batch(rng, self.index.graph.num_vertices, edge_u, edge_v)
            started = time.perf_counter()
            pipeline.update(self.index, *batch, self.artifact, layers)
            invalidating = time.perf_counter()
            ack = control(self.server.port, "invalidate")
            done = time.perf_counter()
            checks.attempt()
            checks.expect(ack.startswith("invalidated generation="),
                          f"serve-hot: unexpected invalidate ack {ack!r}")
            self.ctx.samples.add("update_ms", (done - started) * 1e3)
            if layers is not None:
                layers.samples.add("serve.invalidate_ms", (done - invalidating) * 1e3)
        settings = self.grid()[::POST_UPDATE_STEP]
        expected = pipeline.served_lines(ScanIndex.load(self.artifact), settings)
        answers = replay(HOST, self.server.port, [request_line(*setting) for setting in settings])
        for setting, got, want in zip(settings, answers, expected):
            checks.attempt()
            checks.expect(wire.strip_cache_field(got) == want,
                          f"serve-hot: stale answer after updates at {setting}: "
                          f"{got!r} != {want!r}")

    def layer_replays(self, layers) -> None:
        grid = self.grid()
        stream = inputs.zipf_stream(self.ctx.seed, len(grid), SESSION_REPLAY)
        layers.session_replay(self.loaded, [grid[k] for k in stream], passes=1)


class ServeChurn(_ServeWorkload):
    name = "serve-churn"
    threads = 2  # one reader connection + one updater process
    # One bucket per window: reads differ in cost with their setting, so
    # only a whole window's mix of them compares between runs.
    subwindow_s = float("inf")

    def __init__(self, ctx) -> None:
        super().__init__(ctx)
        self.updater = None
        self.reads: list = []
        self.sent = 0
        self.batches: list = []

    def first_setting(self):
        return (inputs.CHURN_MUS[0], 0.25)

    def grid(self):
        return inputs.churn_grid(self.loaded.similarities.values)

    def warm(self) -> None:
        self.reads = inputs.churn_reads(self.ctx.seed, self.loaded.similarities.values,
                                        CHURN_READS)
        replay(HOST, self.server.port, [request_line(*s) for s in self.reads[-CHURN_WARM:]])

    def setup(self) -> None:
        super().setup()
        # The updater is load generator, not program: started after set-up.
        self.updater = subprocess.Popen(
            [sys.executable, str(Path(__file__).parent / "updater.py"), str(self.artifact),
             str(self.server.port), str(self.ctx.seed), str(self.ctx.workdir / "final-edges.txt")],
            cwd=self.ctx.root, env=self.ctx.env, stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True,
        )
        if self.updater.stdout.readline().strip() != "ready":
            raise RuntimeError("updater did not start")
        start = time.monotonic() + 0.25
        # One schedule over the whole run, traced half included.
        self.updater.stdin.write(f"start {start} {start + self.ctx.seconds - 0.5}\n")
        self.updater.stdin.flush()

    def window(self, seconds: float, layers=None) -> None:
        remaining = self.reads[self.sent:len(self.reads) - CHURN_WARM]
        lines = [request_line(*setting) for setting in remaining]
        seen = self.traffic(seconds, layers, [(lines, range(len(lines)))])
        self.sent += len(seen)
        checks = self.ctx.checks
        for _, response in seen:
            checks.attempt()
            checks.expect(response.startswith("mu=") and " cores=" in response,
                          f"serve-churn: bad read response {response!r}")

    def oracle(self) -> None:
        """Updater health, then the final artifact against a fresh build."""
        from repro.graphs.io import read_edge_list
        from repro.storage.integrity import verify_artifact

        checks = self.ctx.checks
        out, _ = self.updater.communicate(timeout=60)
        self.updater = None
        report = json.loads(out.strip().splitlines()[-1])
        self.batches = report["batches"]
        for error in report["errors"]:
            checks.fail(f"serve-churn updater: {error}")
        checks.attempt(len(self.batches))
        for batch in self.batches:
            self.ctx.samples.add("update_ms", batch["latency_ms"])
        checks.attempt()
        try:
            verify_artifact(self.artifact, deep=True)
        except ValueError as error:  # ArtifactFormatError and its integrity subclass
            checks.fail(f"serve-churn: final artifact fails deep verify: {error}")
            return
        final = ScanIndex.load(self.artifact)
        checks.attempt()
        checks.expect(len(final.update_lineage) == len(self.batches),
                      f"serve-churn: lineage {len(final.update_lineage)} != "
                      f"{len(self.batches)} batches")
        rebuilt = ScanIndex.build(read_edge_list(self.ctx.workdir / "final-edges.txt"),
                                  jobs=pipeline.BUILD_JOBS)
        checks.attempt()
        bad = pipeline.column_mismatches(pipeline.columns_of(self.artifact),
                                         pipeline.index_columns(rebuilt))
        checks.expect(not bad, f"serve-churn: final artifact differs from a rebuild in {bad}")

    def layer_replays(self, layers) -> None:
        final = ScanIndex.load(self.artifact)
        reads = self.reads[:CHURN_REPLAY]
        layers.query_replay(final, reads)
        layers.session_replay(final, reads)
        for batch in self.batches:
            layers.samples.add("dynamic.apply_ms", batch["apply_ms"])
            layers.samples.add("dynamic.affected_edges", batch["affected_edges"])
            layers.samples.add("dynamic.affected_vertices", batch["affected_vertices"])
            layers.samples.add("storage.save_s", batch["save_s"])
            layers.samples.add("serve.invalidate_ms", batch["invalidate_ms"])
            layers.samples.add("loadgen.update_lateness_ms", batch["lateness_ms"])

    def close(self) -> None:
        if self.updater is not None and self.updater.poll() is None:
            self.updater.kill()
            self.updater.wait()
        super().close()
