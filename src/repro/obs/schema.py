"""The JSONL trace-event schema, enforced without a schema library.

Every line a :class:`~repro.obs.trace.Tracer` emits must satisfy this
module's :func:`validate_event`; the tests validate generated traces and
the CI ``observability`` job validates real serve runs.  The schema is
deliberately *closed* -- unknown keys are rejected -- so a producer that
drifts fails loudly instead of shipping fields no consumer reads.

Event shapes (``attrs`` optional everywhere)::

    {"kind": "span",     "name": N, "ts": T, "dur": D, "attrs": {...}}
    {"kind": "event",    "name": N, "ts": T,           "attrs": {...}}
    {"kind": "snapshot", "name": N, "ts": T, "metrics": {...}}

with ``N`` a dotted lowercase identifier (the span taxonomy of
``docs/ARCHITECTURE.md``), ``T``/``D`` non-negative finite numbers, attrs
a flat mapping of string keys to JSON scalars, and ``metrics`` shaped like
a :meth:`~repro.obs.metrics.MetricsRegistry.snapshot`.
"""

from __future__ import annotations

import json
import math
import re
from collections.abc import Iterator
from pathlib import Path

__all__ = ["TraceSchemaError", "read_trace", "validate_event", "validate_trace_path"]

_NAME = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z0-9_]+)*$")

_REQUIRED = {
    "span": frozenset({"kind", "name", "ts", "dur"}),
    "event": frozenset({"kind", "name", "ts"}),
    "snapshot": frozenset({"kind", "name", "ts", "metrics"}),
}
_OPTIONAL = {
    "span": frozenset({"attrs"}),
    "event": frozenset({"attrs"}),
    "snapshot": frozenset(),
}
_SNAPSHOT_SECTIONS = ("counters", "gauges", "histograms")


class TraceSchemaError(ValueError):
    """A trace line violates the event schema."""


def _require_number(value, field: str, context: str) -> None:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TraceSchemaError(f"{context}: {field} must be a number, got {value!r}")
    if not math.isfinite(value) or value < 0:
        raise TraceSchemaError(
            f"{context}: {field} must be finite and non-negative, got {value!r}"
        )


def _validate_attrs(attrs, context: str) -> None:
    if not isinstance(attrs, dict):
        raise TraceSchemaError(f"{context}: attrs must be an object, got {attrs!r}")
    for key, value in attrs.items():
        if not isinstance(key, str):
            raise TraceSchemaError(f"{context}: attr keys must be strings, got {key!r}")
        if value is not None and not isinstance(value, (bool, int, float, str)):
            raise TraceSchemaError(
                f"{context}: attr {key!r} must be a JSON scalar, got {value!r}"
            )


def _validate_metrics(metrics, context: str) -> None:
    if not isinstance(metrics, dict):
        raise TraceSchemaError(f"{context}: metrics must be an object")
    unknown = set(metrics) - set(_SNAPSHOT_SECTIONS)
    if unknown:
        raise TraceSchemaError(f"{context}: unknown metrics sections {sorted(unknown)}")
    for section in _SNAPSHOT_SECTIONS:
        block = metrics.get(section, {})
        if not isinstance(block, dict):
            raise TraceSchemaError(f"{context}: metrics.{section} must be an object")
        for name, value in block.items():
            if not isinstance(name, str) or not _NAME.match(name):
                raise TraceSchemaError(
                    f"{context}: bad metric name {name!r} in {section}"
                )
            if section == "histograms":
                if not isinstance(value, dict) or not (
                    {"bounds", "counts", "count", "sum"} <= set(value)
                ):
                    raise TraceSchemaError(
                        f"{context}: histogram {name!r} missing bounds/counts/count/sum"
                    )
                if len(value["counts"]) != len(value["bounds"]) + 1:
                    raise TraceSchemaError(
                        f"{context}: histogram {name!r} counts/bounds length mismatch"
                    )
            elif isinstance(value, bool) or not isinstance(value, (int, float)):
                raise TraceSchemaError(
                    f"{context}: metric {name!r} must be numeric, got {value!r}"
                )


def validate_event(event, *, context: str = "trace event") -> str:
    """Validate one decoded trace event; returns its kind.

    Raises :class:`TraceSchemaError` naming the offending field, so a
    schema break in CI reads as a diagnosis rather than a diff.
    """
    if not isinstance(event, dict):
        raise TraceSchemaError(f"{context}: expected an object, got {event!r}")
    kind = event.get("kind")
    if kind not in _REQUIRED:
        raise TraceSchemaError(f"{context}: unknown kind {kind!r}")
    keys = set(event)
    missing = _REQUIRED[kind] - keys
    if missing:
        raise TraceSchemaError(f"{context}: {kind} missing keys {sorted(missing)}")
    unknown = keys - _REQUIRED[kind] - _OPTIONAL[kind]
    if unknown:
        raise TraceSchemaError(f"{context}: {kind} has unknown keys {sorted(unknown)}")
    name = event["name"]
    if not isinstance(name, str) or not _NAME.match(name):
        raise TraceSchemaError(
            f"{context}: name must be a dotted lowercase identifier, got {name!r}"
        )
    _require_number(event["ts"], "ts", context)
    if kind == "span":
        _require_number(event["dur"], "dur", context)
    if "attrs" in event:
        _validate_attrs(event["attrs"], context)
    if kind == "snapshot":
        _validate_metrics(event["metrics"], context)
    return kind


def read_trace(path: str | Path) -> Iterator[tuple[str, dict]]:
    """Parse and validate a JSONL trace file line by line.

    Yields ``(kind, event)`` per line.  Blank lines are rejected -- a
    truncated write must not pass as a clean file.  Every
    :class:`TraceSchemaError` names the file and the 1-based line number.
    """
    with Path(path).open() as handle:
        for line_number, line in enumerate(handle, start=1):
            context = f"{path}:{line_number}"
            try:
                event = json.loads(line)
            except json.JSONDecodeError as error:
                raise TraceSchemaError(f"{context}: not valid JSON: {error}") from None
            yield validate_event(event, context=context), event


def validate_trace_path(path: str | Path) -> dict:
    """Validate every line of a JSONL trace file; returns counts by kind."""
    counts = {kind: 0 for kind in _REQUIRED}
    for kind, _ in read_trace(path):
        counts[kind] += 1
    return counts
