"""Span-based tracing: schema-validated JSONL events with an injected clock.

A :class:`Tracer` writes one JSON object per line to a sink, three kinds
(the schema in :mod:`repro.obs.schema` is the contract):

``span``
    A timed region: ``{"kind": "span", "name", "ts", "dur", "attrs"}``.
    Produced by the :meth:`Tracer.span` context manager; ``ts`` is the
    clock reading at entry, ``dur`` the elapsed clock at exit.  Attributes
    may be added inside the region (``span.attrs["cache"] = "hit"``) --
    they are serialised at exit.
``event``
    An instantaneous occurrence (a worker restart, a degradation):
    ``{"kind": "event", "name", "ts", "attrs"}``.
``snapshot``
    A metrics-registry snapshot embedded in the stream, written by
    :meth:`Tracer.snapshot` (the CLI emits one final snapshot before
    closing) so a trace file is self-contained: spans for the timeline,
    the snapshot for the aggregates.

The clock is injected (``clock=time.perf_counter`` by default): tests pass
a deterministic fake and the emitted bytes are stable forever, the same
discipline ``bench/report.py`` uses for its golden markdown.  Attribute
values are coerced to JSON scalars at write time (numpy ints arrive from
every call site), so an emitted line always validates.

The disabled path is :data:`NULL_TRACER`: ``enabled`` is ``False``, spans
are one shared no-op context manager and events return immediately --
cheap enough to call unconditionally on per-request paths that cost
microseconds, and free on paths that gate on ``tracer.enabled`` first.
"""

from __future__ import annotations

import json
import numbers
import time
from pathlib import Path

__all__ = ["NULL_TRACER", "NullTracer", "Span", "Tracer"]


#: One shared key-sorting encoder: ``json.dumps(..., sort_keys=True)`` builds
#: a fresh encoder per call, about a fifth of the cost of a span line.
_encode = json.JSONEncoder(sort_keys=True).encode


def _scalar(value):
    """Coerce one attribute value to a JSON scalar (schema contract)."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    # numpy integers/floats register with the numeric ABCs, so this stays
    # numpy-free while keeping ints ints (7, not 7.0) in the emitted JSON.
    if isinstance(value, numbers.Integral):
        return int(value)
    if isinstance(value, numbers.Real):
        return float(value)
    return str(value)


class Span:
    """One timed region; a context manager that writes itself at exit."""

    __slots__ = ("_tracer", "name", "attrs", "_started")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict) -> None:
        self._tracer = tracer
        self.name = name
        self.attrs = attrs
        self._started = 0.0

    def __enter__(self) -> "Span":
        self._started = self._tracer._clock()
        return self

    def __exit__(self, *exc_info) -> None:
        ended = self._tracer._clock()
        self._tracer._write(
            {
                "kind": "span",
                "name": self.name,
                "ts": self._started,
                "dur": max(ended - self._started, 0.0),
            },
            self.attrs,
        )


class Tracer:
    """JSONL trace writer over one sink with an injected clock.

    Parameters
    ----------
    sink:
        File-like object with ``write(str)``; the tracer writes one JSON
        line per event and never seeks.
    clock:
        Zero-argument callable returning monotonically non-decreasing
        floats; ``time.perf_counter`` in production, a deterministic
        counter in tests.
    path:
        Recorded origin of the sink when it is a file the tracer owns --
        the serving front end reads it to derive per-worker trace paths.
    """

    enabled = True

    def __init__(self, sink, *, clock=time.perf_counter, path: str | None = None):
        self._sink = sink
        self._clock = clock
        self.path = path
        self._owns_sink = False
        self.events_written = 0

    @classmethod
    def to_path(cls, path: str | Path, *, clock=time.perf_counter) -> "Tracer":
        """Tracer over a line-buffered file it owns (closed by :meth:`close`)."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        tracer = cls(open(path, "w", buffering=1), clock=clock, path=str(path))
        tracer._owns_sink = True
        return tracer

    # -- emission ----------------------------------------------------------
    def _write(self, payload: dict, attrs: dict | None) -> None:
        if attrs:
            payload["attrs"] = {key: _scalar(value) for key, value in attrs.items()}
        self._sink.write(_encode(payload) + "\n")
        self.events_written += 1

    def span(self, name: str, **attrs) -> Span:
        """Context manager timing a region; writes one ``span`` line at exit."""
        return Span(self, name, attrs)

    def event(self, name: str, **attrs) -> None:
        """Write one instantaneous ``event`` line."""
        self._write({"kind": "event", "name": name, "ts": self._clock()}, attrs)

    def snapshot(self, name: str, metrics: dict) -> None:
        """Embed a metrics-registry snapshot in the stream."""
        self._write(
            {
                "kind": "snapshot",
                "name": name,
                "ts": self._clock(),
                "metrics": metrics,
            },
            None,
        )

    def close(self) -> None:
        """Flush, and close the sink if this tracer opened it."""
        flush = getattr(self._sink, "flush", None)
        if flush is not None:
            try:
                flush()
            except ValueError:  # pragma: no cover - sink already closed
                pass
        if self._owns_sink:
            self._sink.close()


class _NullSpan:
    """Shared no-op span: the whole disabled-tracing cost of a region."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        return None

    @property
    def attrs(self) -> dict:
        # A throwaway dict per access: attribute writes inside the region
        # vanish without accumulating on the shared instance.
        return {}


_NULL_SPAN = _NullSpan()


class NullTracer:
    """The disabled tracer: every operation is a near-free no-op."""

    enabled = False
    path = None
    events_written = 0

    def span(self, name: str, **attrs) -> _NullSpan:
        return _NULL_SPAN

    def event(self, name: str, **attrs) -> None:
        return None

    def snapshot(self, name: str, metrics: dict) -> None:
        return None

    def close(self) -> None:
        return None


#: The process-wide disabled tracer (stateless, safe to share).
NULL_TRACER = NullTracer()
