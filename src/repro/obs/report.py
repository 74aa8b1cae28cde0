"""Render a trace file or metrics snapshot as readable text.

``repro obs report TRACE`` summarises a JSONL trace: per-span-name
duration statistics (count, total, mean, exact p50/p99 over the recorded
durations -- a trace holds every span, so no bucket interpolation is
needed), the event tally, and the final embedded metrics snapshot if one
was written.  Rendering rides the same :func:`~repro.bench.reporting
.format_table` the benchmark harness uses, and is deterministic for a
given trace file (spans sorted by name, metrics pre-sorted by the
registry), so the golden test can pin exact bytes.
"""

from __future__ import annotations

from pathlib import Path

from ..bench.reporting import format_table
from .schema import read_trace

__all__ = ["render_metrics_snapshot", "render_trace_report", "summarize_trace"]


def _exact_quantile(sorted_values: list, q: float) -> float:
    """Exact quantile by linear interpolation over the sorted sample."""
    if not sorted_values:
        return 0.0
    position = q * (len(sorted_values) - 1)
    low = int(position)
    high = min(low + 1, len(sorted_values) - 1)
    fraction = position - low
    return sorted_values[low] * (1.0 - fraction) + sorted_values[high] * fraction


def summarize_trace(path: str | Path) -> dict:
    """Parse and validate a JSONL trace; return the aggregate summary.

    Returns ``{"spans": {name: {count, sum, mean, p50, p99}}, "events":
    {name: count}, "snapshot": <last embedded metrics dict or None>,
    "lines": n}``.  Every line is schema-validated on the way through,
    so a malformed trace fails here rather than rendering nonsense.
    """
    durations: dict[str, list] = {}
    events: dict[str, int] = {}
    snapshot = None
    lines = 0
    for kind, record in read_trace(path):
        lines += 1
        if kind == "span":
            durations.setdefault(record["name"], []).append(record["dur"])
        elif kind == "event":
            events[record["name"]] = events.get(record["name"], 0) + 1
        else:
            snapshot = record["metrics"]
    spans = {}
    for name in sorted(durations):
        values = sorted(durations[name])
        total = sum(values)
        spans[name] = {
            "count": len(values),
            "sum": total,
            "mean": total / len(values),
            "p50": _exact_quantile(values, 0.50),
            "p99": _exact_quantile(values, 0.99),
        }
    return {
        "spans": spans,
        "events": dict(sorted(events.items())),
        "snapshot": snapshot,
        "lines": lines,
    }


def render_metrics_snapshot(snapshot: dict) -> str:
    """Render one registry snapshot (from ``!metrics`` or a trace) as text."""
    blocks = []
    counters = snapshot.get("counters", {})
    if counters:
        blocks.append(
            "counters\n"
            + format_table(["name", "value"], sorted(counters.items()))
        )
    gauges = snapshot.get("gauges", {})
    if gauges:
        blocks.append(
            "gauges\n" + format_table(["name", "value"], sorted(gauges.items()))
        )
    histograms = snapshot.get("histograms", {})
    if histograms:
        rows = [
            [
                name,
                summary["count"],
                summary["sum"],
                summary.get("mean", 0.0),
                summary.get("p50", 0.0),
                summary.get("p99", 0.0),
            ]
            for name, summary in sorted(histograms.items())
        ]
        blocks.append(
            "histograms\n"
            + format_table(["name", "count", "sum", "mean", "p50", "p99"], rows)
        )
    if not blocks:
        return "(no metrics recorded)"
    return "\n\n".join(blocks)


def render_trace_report(path: str | Path) -> str:
    """The ``repro obs report`` body for one trace file."""
    summary = summarize_trace(path)
    blocks = [f"trace {path}: {summary['lines']} events"]
    if summary["spans"]:
        rows = [
            [name, s["count"], s["sum"], s["mean"], s["p50"], s["p99"]]
            for name, s in summary["spans"].items()
        ]
        blocks.append(
            "spans\n"
            + format_table(
                ["span", "count", "sum_s", "mean_s", "p50_s", "p99_s"], rows
            )
        )
    if summary["events"]:
        blocks.append(
            "events\n"
            + format_table(["event", "count"], summary["events"].items())
        )
    if summary["snapshot"] is not None:
        blocks.append(render_metrics_snapshot(summary["snapshot"]))
    return "\n\n".join(blocks)
