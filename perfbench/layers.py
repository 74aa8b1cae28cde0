"""Per-layer timers for traced runs, applied from outside the program.

Tracing inside the program is a later change; here every per-layer number
is a public call timed from the benchmark's own code, a count the program
already exposes, or a difference between two measured numbers:

* construction: ``ScanIndex.build`` resolves ``compute_similarities``,
  ``build_neighbor_order`` and ``build_core_order`` through its module
  namespace, so :meth:`LayerTimers.installed` swaps in timing wrappers for
  the duration of a traced build (the similarity wrapper also reads the
  exact scheduler work count the call charged);
* storage and queries: the benchmark calls ``read_edge_list``, ``save``,
  ``load``, ``get_cores`` and ``cluster`` itself, under
  :meth:`~measure.Samples.timed`; calls that no op makes (an unverified
  load, an executor's start-up) run between ops, outside every op time,
  so traced minus untraced op time is the cost of the timers and the
  ``obs`` tracer alone;
* the program's own ``obs`` tracer runs alongside, and
  :meth:`LayerTimers.cross_check` sets its spans next to the outside
  timings so any disagreement between a trace and the bench shows.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from measure import Samples

#: The program's span for each outside timing it should agree with.
SPAN_FOR_TIMER = {
    "similarity.compute_s": ("build.similarities", None),
    "core.neighbor_order.build_s": ("build.neighbor_order", None),
    "core.core_order.build_s": ("build.core_order", None),
    "storage.save_s": ("storage.save", None),
    "storage.load_s": ("storage.load", False),
    "storage.verify_s": ("storage.load", True),
}
#: A span and its outside timer disagree past this share of the timer
#: (and past ``AGREE_FLOOR_S``, so sub-millisecond calls are not flagged
#: for timer granularity).
AGREE_SHARE = 0.10
AGREE_FLOOR_S = 0.002


class LayerTimers:
    """Outside timers around layer calls, recorded into a :class:`Samples`."""

    def __init__(self, samples: Samples, trace_path: Path) -> None:
        self.samples = samples
        self.trace_path = trace_path

    def _wrap(self, name: str, function, *, work: str | None = None):
        samples = self.samples

        def wrapper(*args, **kwargs):
            scheduler = kwargs.get("scheduler")
            before = scheduler.counter.work if work and scheduler is not None else 0.0
            started = time.perf_counter()
            result = function(*args, **kwargs)
            samples.add(name, time.perf_counter() - started)
            if work and scheduler is not None:
                samples.add(work, scheduler.counter.work - before)
            return result

        return wrapper

    @contextmanager
    def installed(self):
        """Time the build stages and run the program's ``obs`` tracer."""
        from repro import obs
        import repro.core.index as index_module

        originals = {
            "compute_similarities": index_module.compute_similarities,
            "build_neighbor_order": index_module.build_neighbor_order,
            "build_core_order": index_module.build_core_order,
        }
        index_module.compute_similarities = self._wrap(
            "similarity.compute_s", originals["compute_similarities"],
            work="similarity.work",
        )
        index_module.build_neighbor_order = self._wrap(
            "core.neighbor_order.build_s", originals["build_neighbor_order"]
        )
        index_module.build_core_order = self._wrap(
            "core.core_order.build_s", originals["build_core_order"]
        )
        tracing = not obs.on()
        if tracing:
            obs.configure(self.trace_path)
        try:
            yield
        finally:
            for name, function in originals.items():
                setattr(index_module, name, function)
            if tracing:
                obs.finalise()

    def standalone_calls(self, artifact: Path, num_arcs: int) -> None:
        """Layer calls no op makes, timed between ops so no op time holds them.

        A 2-worker executor entered, forced with one tiny dispatch and left;
        and an unverified ``ScanIndex.load`` of ``artifact``.
        """
        from repro import ScanIndex
        from repro.parallel.execute import executor_for

        keys = np.arange(64, dtype=np.int64)[::-1].copy()
        with self.samples.timed("parallel.execute.startup_s"):
            with executor_for(2, num_arcs=num_arcs) as executor:
                if executor is not None:
                    executor.segmented_argsort(
                        keys, np.array([0, 32, 64]), universe=64, max_segment=32
                    )
        with self.samples.timed("storage.load_s"):
            ScanIndex.load(artifact)

    def query_replay(self, index, settings) -> None:
        """``get_cores`` and ``cluster`` per setting, with exact work counts."""
        from repro.core.query import cluster, get_cores
        from repro.parallel.scheduler import Scheduler

        for mu, epsilon in settings:
            scheduler = Scheduler()
            with self.samples.timed("core.query.cores_s"):
                get_cores(index.core_order, mu, epsilon, scheduler=scheduler)
            scheduler = Scheduler()
            with self.samples.timed("core.query.cluster_s"):
                cluster(index.graph, index.neighbor_order, index.core_order, mu,
                        epsilon, scheduler=scheduler, deterministic_borders=True)
            self.samples.add("core.query.work", scheduler.counter.work)

    def sharing_ratio(self, index, grid, sweep_seconds: float) -> None:
        """Per-pair ``cluster`` total over the grid divided by ``query_many``."""
        before = len(self.samples.get("core.query.cluster_s"))
        self.query_replay(index, grid)
        per_pair = sum(self.samples.get("core.query.cluster_s")[before:])
        self.samples.add("core.sweep_query.sharing_ratio", per_pair / sweep_seconds)

    def session_replay(self, index, settings, *, passes: int = 2) -> None:
        """Replay settings through one in-process session: misses, then hits."""
        session = index.session()
        for _ in range(passes):
            for mu, epsilon in settings:
                started = time.perf_counter()
                result = session.serve(mu, epsilon, deterministic_borders=True)
                elapsed = time.perf_counter() - started
                if result.from_cache:
                    self.samples.add("serve.session.hit_us", elapsed * 1e6)
                else:
                    self.samples.add("serve.session.miss_ms", elapsed * 1e3)

    def cross_check(self) -> dict:
        """The program's spans beside the outside timings, with agreement flags."""
        spans: dict[tuple, list[float]] = {}
        if self.trace_path.exists():
            for line in self.trace_path.read_text().splitlines():
                record = json.loads(line)
                if record.get("kind") != "span":
                    continue
                verify = record.get("attrs", {}).get("verify")
                spans.setdefault((record["name"], None), []).append(record["dur"])
                if verify is not None:
                    spans.setdefault((record["name"], verify), []).append(record["dur"])
        report = {}
        for timer, key in SPAN_FOR_TIMER.items():
            outside = self.samples.get(timer)
            inside = spans.get(key, [])
            if not outside or not inside:
                continue
            outside_median = statistics.median(outside)
            inside_median = statistics.median(inside)
            gap = abs(outside_median - inside_median)
            report[timer] = {
                "span": key[0] + ("" if key[1] is None else f"[verify={key[1]}]"),
                "outside_seconds": outside_median,
                "span_seconds": inside_median,
                "outside_samples": len(outside),
                "span_samples": len(inside),
                "agree": gap <= max(AGREE_SHARE * outside_median, AGREE_FLOOR_S),
            }
        return report
