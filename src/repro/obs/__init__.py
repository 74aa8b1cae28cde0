"""Cross-cutting observability: metrics registry + span tracing.

The repo's first layer that touches every subsystem.  Call sites use the
tiny runtime vocabulary (``obs.span``, ``obs.event``, ``obs.counter``,
gated by ``obs.on()`` on hot paths); everything else -- the registry and
histogram mechanics, the JSONL schema and reporting -- lives in the
submodules.

* :mod:`~repro.obs.metrics` -- counters, gauges, fixed-bucket histograms,
  mergeable snapshots (the worker→front-end ``!metrics`` contract).
* :mod:`~repro.obs.trace` -- span/event/snapshot JSONL tracer with an
  injected clock; :data:`NULL_TRACER` is the near-free disabled path.
* :mod:`~repro.obs.schema` -- the closed JSONL event schema and validator.
* :mod:`~repro.obs.runtime` -- the process-global state and lifecycle
  (``configure`` / ``install`` / ``reset`` / ``finalise``).
* :mod:`~repro.obs.report` -- ``repro obs report`` rendering.

``report`` is *not* imported here: it pulls in :mod:`repro.bench`, whose
harness imports the (obs-instrumented) core -- importing it at package
load would close an import cycle.  The CLI and tests import it as a
submodule (``from repro.obs import report``).
"""

from .metrics import (
    LATENCY_BOUNDS,
    SIZE_BOUNDS,
    Counter,
    Gauge,
    Histogram,
    MetricsError,
    MetricsRegistry,
    merge_snapshots,
)
from .runtime import (
    configure,
    counter,
    event,
    finalise,
    gauge,
    histogram,
    install,
    metrics,
    on,
    reset,
    span,
    tracer,
)
from .schema import TraceSchemaError, validate_event, validate_trace_path
from .trace import NULL_TRACER, NullTracer, Span, Tracer

__all__ = [
    "LATENCY_BOUNDS",
    "NULL_TRACER",
    "SIZE_BOUNDS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsError",
    "MetricsRegistry",
    "NullTracer",
    "Span",
    "Tracer",
    "TraceSchemaError",
    "configure",
    "counter",
    "event",
    "finalise",
    "gauge",
    "histogram",
    "install",
    "merge_snapshots",
    "metrics",
    "on",
    "reset",
    "span",
    "tracer",
    "validate_event",
    "validate_trace_path",
]
