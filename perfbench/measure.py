"""Sample collection, summaries and the result payload.

A run gathers raw samples per metric name (:class:`Samples`), summarises
each as a median -- query latency also as a p99 -- with its sample count,
and emits two things:

* the driver line: the last line of stdout, ``{"correct", "attempted",
  "failed", "metrics"}`` with one ``{"value", "unit"}`` per metric;
* the payload: a ``repro bench`` store-importable JSON document carrying
  every metric with its sample count, the correctness record and the
  machine fingerprint (``repro bench record`` / ``repro bench gate``).
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

#: The tail rule: a percentile is trustworthy only with at least this many
#: samples beyond it.
MIN_BEYOND = 10
#: Fewest samples for a bucket's own p99 (ten beyond it); with fewer, the
#: p99 is taken over the whole window instead.
P99_SAMPLES = 100 * MIN_BEYOND


class Samples:
    """Raw samples per metric name, in insertion order."""

    def __init__(self) -> None:
        self.values: dict[str, list[float]] = {}

    def add(self, name: str, value: float) -> None:
        self.values.setdefault(name, []).append(float(value))

    def extend(self, name: str, values) -> None:
        self.values.setdefault(name, []).extend(float(v) for v in values)

    @contextmanager
    def timed(self, name: str, scale: float = 1.0):
        """Time the body with ``perf_counter``; record seconds × ``scale``."""
        started = time.perf_counter()
        try:
            yield
        finally:
            self.add(name, (time.perf_counter() - started) * scale)

    def get(self, name: str) -> list[float]:
        return self.values.get(name, [])


def cpu_ticks() -> list[int] | None:
    """The machine-wide ``cpu`` line of ``/proc/stat`` (``None`` off Linux)."""
    try:
        with open("/proc/stat") as stat:
            return [int(field) for field in stat.readline().split()[1:]]
    except (OSError, ValueError):
        return None


def steal_share(before: list[int] | None, after: list[int] | None) -> float | None:
    """Share of CPU time the hypervisor took between two :func:`cpu_ticks`.

    Recorded beside the metrics: on a shared virtual machine a run that
    lost much time to steal reads slower for reasons outside the program.
    """
    if before is None or after is None or len(before) < 8:
        return None
    total = sum(after) - sum(before)
    return (after[7] - before[7]) / total if total > 0 else 0.0


@contextmanager
def stopwatch(into: dict, name: str):
    """Store the body's wall seconds as ``into[name]``."""
    started = time.perf_counter()
    try:
        yield
    finally:
        into[name] = time.perf_counter() - started


@dataclass
class Metric:
    """One reported number with its unit and provenance."""

    name: str
    value: float
    unit: str
    samples: int
    better: str = "lower"
    beyond: int | None = None  # samples beyond a reported tail percentile

    def record(self) -> dict:
        """Payload form; the value's key carries the gate polarity.

        ``repro bench gate`` infers direction from the leaf name, so
        seconds land under ``seconds``, milliseconds under ``value_ms``
        and rates under ``per_second``; anything else is a neutral
        ``value`` that is reported but never gated.
        """
        key = "value"
        if self.better == "lower" and self.unit == "s":
            key = "seconds"
        elif self.better == "lower" and self.unit == "ms":
            key = "value_ms"
        elif self.better == "higher" and self.unit == "1/s":
            key = "per_second"
        record = {key: self.value, "unit": self.unit, "samples": self.samples}
        if self.beyond is not None:
            record["samples_beyond"] = self.beyond
            record["meets_tail_rule"] = self.beyond >= MIN_BEYOND
        return record


def median_metric(name: str, values, unit: str, *, better: str = "lower") -> Metric:
    values = list(values)
    if not values:
        raise ValueError(f"metric {name} has no samples")
    return Metric(name, statistics.median(values), unit, len(values), better)


def time_buckets(stamped, start: float, end: float,
                 width: float) -> list[tuple[list, float]]:
    """Split ``(finish time, latency)`` pairs into sub-windows about ``width`` long.

    Latency percentiles and throughput are taken per sub-window and reported
    as their median, so a slow phase of a shared machine lasting a second or
    two moves one or two sub-windows rather than the result.  A window
    shorter than ``width`` (or an infinite ``width``) is one bucket.
    """
    count = max(round((end - start) / width), 1)
    width = (end - start) / count
    buckets: list[list[float]] = [[] for _ in range(count)]
    for stamp, latency in stamped:
        buckets[min(max(int((stamp - start) // width), 0), count - 1)].append(latency)
    return [(bucket, width) for bucket in buckets]


def add_query_buckets(samples: Samples, buckets, prefix: str = "") -> None:
    """Record each bucket's latencies, p50, throughput and (when large) p99.

    ``buckets`` holds ``(latencies in seconds, seconds spanned)`` pairs: a
    serving sub-window, or one explore op's drill-down.
    """
    for latencies, seconds in buckets:
        if not latencies:
            continue
        samples.extend(prefix + "query_s", latencies)
        samples.add(prefix + "query_p50_s", statistics.median(latencies))
        samples.add(prefix + "query_per_s", len(latencies) / seconds)
        if len(latencies) >= P99_SAMPLES:
            samples.add(prefix + "query_p99_s", np.percentile(latencies, 99))


def end_to_end(s: Samples) -> list[Metric]:
    """The end-to-end metrics every workload reports, from its untraced samples.

    Query latency and throughput are medians of their per-bucket values.
    The p99 is the median of the bucket p99s where buckets are large enough
    to hold one (``serve-hot``), else the p99 of all samples; either way the
    count of samples beyond it is recorded.
    """
    latencies = s.get("query_s")
    bucket_p99 = s.get("query_p99_s")
    p99 = statistics.median(bucket_p99) if bucket_p99 else float(np.percentile(latencies, 99))
    return [
        median_metric("setup_s", s.get("setup_s"), "s"),
        median_metric("build_s", s.get("build_s"), "s"),
        median_metric("open_s", s.get("open_s"), "s"),
        median_metric("sweep_s", s.get("sweep_s"), "s"),
        Metric("query_p50_ms", statistics.median(s.get("query_p50_s")) * 1e3, "ms",
               len(latencies)),
        Metric("query_p99_ms", p99 * 1e3, "ms", len(latencies), "lower",
               sum(1 for v in latencies if v > p99)),
        median_metric("query_per_s", s.get("query_per_s"), "1/s", better="higher"),
        median_metric("update_p50_ms", s.get("update_ms"), "ms"),
    ]


@dataclass
class Checks:
    """Correctness bookkeeping: attempted operations and named failures."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def attempt(self, count: int = 1) -> None:
        self.attempted += count

    def fail(self, message: str) -> None:
        self.failures.append(message)

    def expect(self, condition: bool, message: str) -> None:
        if not condition:
            self.fail(message)

    @property
    def failed(self) -> int:
        return len(self.failures)


def driver_line(checks: Checks, metrics: list[Metric]) -> str:
    """The single-line result the benchmark prints last."""
    return json.dumps({
        "correct": not checks.failures,
        "attempted": max(checks.attempted, 1),
        "failed": checks.failed,
        "metrics": {m.name: {"value": m.value, "unit": m.unit} for m in metrics},
    })


def payload(*, workload: str, seed: int, seconds: int, trace: bool,
            environment: dict, graph: dict, checks: Checks,
            metrics: list[Metric], extra: dict | None = None) -> dict:
    """The store-importable results document of one run."""
    attempted = max(checks.attempted, 1)
    document = {
        "benchmark": f"perfbench-{workload}" + ("-traced" if trace else ""),
        "environment": environment,
        "workload": workload,
        "seed": seed,
        "run_seconds": seconds,
        "trace": trace,
        "graph": graph,
        "correct": not checks.failures,
        "attempted": attempted,
        "failed": checks.failed,
        "failed_ratio": checks.failed / attempted,
        "failures": list(checks.failures),
        "metrics": {m.name: m.record() for m in metrics},
    }
    if extra:
        document.update(extra)
    return document
