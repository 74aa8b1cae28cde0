"""Zero-dependency metrics: counters, gauges, fixed-bucket histograms.

The registry is the *persistent* half of the observability layer (the
tracer in :mod:`repro.obs.trace` is the streaming half): every subsystem
increments counters and observes latencies into one process-local
:class:`MetricsRegistry`, and a snapshot of it -- a plain JSON-able dict --
is what ``!metrics`` returns and what the final trace ``snapshot`` event
records.

Three design points:

* **Fixed buckets.**  Histograms bucket into *fixed* bounds chosen at
  creation (:data:`LATENCY_BOUNDS` power-of-two seconds for timings,
  :data:`SIZE_BOUNDS` power-of-four counts for set sizes), so observing is
  one bisect plus one list increment -- no per-observation allocation --
  and two histograms over the same bounds merge by adding count vectors.
  p50/p99 are interpolated from the buckets on demand, never stored.
* **Mergeable snapshots.**  :func:`merge_snapshots` is a pure function:
  counters and histogram count vectors add, gauges add (every gauge in the
  taxonomy is a size, for which summing across workers is the fleet
  total).  This is the worker→front-end contract of ``!metrics``: each
  forked serving worker snapshots its own registry and the front end folds
  the snapshots into its own -- without mutating any registry, so repeated
  ``!metrics`` calls never double-count.
* **Settable counters.**  A :class:`Counter`'s value is a plain attribute.
  Hot paths that already keep their own Python counters (the session's
  ``served`` / ``cache_hits``) are *synced* into the registry at snapshot
  time instead of paying a registry call per request -- which is how the
  disabled-instrumentation path stays at zero per-request overhead.
"""

from __future__ import annotations

from bisect import bisect_left

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "LATENCY_BOUNDS",
    "MetricsError",
    "MetricsRegistry",
    "SIZE_BOUNDS",
    "merge_snapshots",
]

#: Power-of-two second buckets, ~1 µs to ~32 s: wide enough for a cache
#: hit and a cold orkut-scale build stage in one taxonomy.
LATENCY_BOUNDS = tuple(2.0 ** exponent for exponent in range(-20, 6))

#: Power-of-four count buckets for set sizes (affected edges, cache sizes).
SIZE_BOUNDS = tuple(float(4 ** exponent) for exponent in range(0, 16))


class MetricsError(ValueError):
    """A metric was re-registered with an incompatible shape."""


class Counter:
    """A monotone event count; ``value`` is settable for snapshot-time sync."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount


class Gauge:
    """A point-in-time level (cache size, worker count)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


class Histogram:
    """Fixed-bucket distribution with on-demand interpolated quantiles.

    ``bounds`` are the ascending upper edges of the first ``len(bounds)``
    buckets; one overflow bucket catches everything above the last edge.
    An observation lands in the first bucket whose upper edge is >= the
    value (``bisect_left``), so merging requires only equal bounds.
    """

    __slots__ = ("bounds", "counts", "count", "total")

    def __init__(self, bounds: tuple = LATENCY_BOUNDS) -> None:
        bounds = tuple(float(b) for b in bounds)
        if not bounds or list(bounds) != sorted(set(bounds)):
            raise MetricsError(f"histogram bounds must be ascending, got {bounds!r}")
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)
        self.count = 0
        self.total = 0.0

    def observe(self, value: float) -> None:
        value = float(value)
        self.counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value

    def quantile(self, q: float) -> float:
        """Interpolated quantile from the bucket counts (0 for empty).

        Deterministic: the target rank is placed linearly inside its
        bucket between the bucket's lower and upper edge (the overflow
        bucket reports the last finite edge), so equal snapshots always
        render equal quantiles -- the byte-stability the golden report
        tests pin.
        """
        if self.count == 0:
            return 0.0
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must lie in [0, 1], got {q}")
        target = q * self.count
        seen = 0
        for index, bucket_count in enumerate(self.counts):
            if bucket_count == 0:
                continue
            if seen + bucket_count >= target:
                lower = self.bounds[index - 1] if index > 0 else 0.0
                upper = self.bounds[min(index, len(self.bounds) - 1)]
                fraction = (target - seen) / bucket_count
                return lower + (upper - lower) * min(max(fraction, 0.0), 1.0)
            seen += bucket_count
        return self.bounds[-1]  # pragma: no cover - arithmetic backstop

    def summary(self) -> dict:
        """JSON-able snapshot: bounds, counts, count, sum, mean, p50/p99."""
        return {
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "count": self.count,
            "sum": self.total,
            "mean": self.total / self.count if self.count else 0.0,
            "p50": self.quantile(0.50),
            "p99": self.quantile(0.99),
        }


class MetricsRegistry:
    """Named metrics of one process, created on first use.

    Names follow the dotted span taxonomy (``serve.request_seconds``,
    ``parallel.degraded_total``); re-requesting a name returns the same
    instance, and requesting a histogram under different bounds raises
    :class:`MetricsError` rather than silently forking the metric.
    """

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = Counter()
        return counter

    def gauge(self, name: str) -> Gauge:
        gauge = self._gauges.get(name)
        if gauge is None:
            gauge = self._gauges[name] = Gauge()
        return gauge

    def histogram(self, name: str, bounds: tuple | None = None) -> Histogram:
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = self._histograms[name] = Histogram(
                bounds if bounds is not None else LATENCY_BOUNDS
            )
        elif bounds is not None and tuple(float(b) for b in bounds) != histogram.bounds:
            raise MetricsError(
                f"histogram {name!r} already registered with different bounds"
            )
        return histogram

    def snapshot(self) -> dict:
        """JSON-able state of every metric, keys sorted for byte-stability."""
        return {
            "counters": {
                name: self._counters[name].value for name in sorted(self._counters)
            },
            "gauges": {
                name: self._gauges[name].value for name in sorted(self._gauges)
            },
            "histograms": {
                name: self._histograms[name].summary()
                for name in sorted(self._histograms)
            },
        }


def merge_snapshots(base: dict, other: dict) -> dict:
    """Fold snapshot ``other`` into a copy of snapshot ``base`` (pure).

    Counters add, gauges add (the taxonomy's gauges are sizes, so the sum
    is the fleet total), histograms add their count vectors -- which
    requires equal bounds and raises :class:`MetricsError` otherwise,
    because silently mixing bucket layouts would render nonsense
    quantiles.  Metrics present on only one side are kept as-is.
    """
    merged = {
        "counters": dict(base.get("counters", {})),
        "gauges": dict(base.get("gauges", {})),
        "histograms": {
            name: dict(summary)
            for name, summary in base.get("histograms", {}).items()
        },
    }
    for name, value in other.get("counters", {}).items():
        merged["counters"][name] = merged["counters"].get(name, 0) + value
    for name, value in other.get("gauges", {}).items():
        merged["gauges"][name] = merged["gauges"].get(name, 0.0) + value
    for name, summary in other.get("histograms", {}).items():
        mine = merged["histograms"].get(name)
        if mine is None:
            merged["histograms"][name] = dict(summary)
            continue
        if list(mine["bounds"]) != list(summary["bounds"]):
            raise MetricsError(
                f"cannot merge histogram {name!r}: bucket bounds differ"
            )
        counts = [a + b for a, b in zip(mine["counts"], summary["counts"])]
        rebuilt = Histogram(tuple(mine["bounds"]))
        rebuilt.counts = counts
        rebuilt.count = mine["count"] + summary["count"]
        rebuilt.total = mine["sum"] + summary["sum"]
        merged["histograms"][name] = rebuilt.summary()
    # Sorted at every level so a merged snapshot serialises byte-stably.
    return {
        "counters": dict(sorted(merged["counters"].items())),
        "gauges": dict(sorted(merged["gauges"].items())),
        "histograms": dict(sorted(merged["histograms"].items())),
    }
