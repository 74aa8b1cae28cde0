"""Tests for the obs runtime seam and the trace report.

`runtime` is the process-global state every instrumented subsystem talks
to; its contracts are: disabled by default (null tracer, `on()` False),
`install` is a restorable test seam, `reset` severs inherited state, and
`finalise` appends exactly one self-describing snapshot then disables
tracing.  `report` consumes the files the runtime writes.
"""

import io
import json

import pytest

from repro import obs
from repro.obs import report
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer


class FakeClock:
    """Deterministic clock advancing by a fixed step per reading."""

    def __init__(self, step: float = 0.25) -> None:
        self.now = 0.0
        self.step = step

    def __call__(self) -> float:
        reading, self.now = self.now, self.now + self.step
        return reading


@pytest.fixture
def isolated_obs():
    """A fresh registry + in-memory tracer installed for one test."""
    sink = io.StringIO()
    tracer = Tracer(sink, clock=FakeClock())
    previous = obs.install(tracer=tracer, registry=MetricsRegistry())
    try:
        yield sink
    finally:
        obs.install(tracer=previous[0], registry=previous[1])


class TestRuntime:
    def test_disabled_by_default(self):
        # The suite must start (and stay) with tracing off: `on()` is the
        # hot-path gate every instrumented subsystem trusts.
        assert obs.on() is False
        assert obs.tracer().enabled is False

    def test_install_enables_and_restores(self, isolated_obs):
        assert obs.on() is True
        obs.event("test.moment")
        obs.counter("test.total").inc()
        assert obs.metrics().snapshot()["counters"] == {"test.total": 1}
        assert '"test.moment"' in isolated_obs.getvalue()

    def test_span_forwarding_writes_through(self, isolated_obs):
        with obs.span("test.region", size=2):
            pass
        line = json.loads(isolated_obs.getvalue())
        assert line["name"] == "test.region"
        assert line["attrs"] == {"size": 2}

    def test_finalise_appends_snapshot_and_disables(self, isolated_obs):
        obs.counter("test.total").inc(3)
        obs.finalise()
        lines = [json.loads(l) for l in isolated_obs.getvalue().splitlines()]
        assert lines[-1]["kind"] == "snapshot"
        assert lines[-1]["metrics"]["counters"] == {"test.total": 3}
        assert obs.on() is False

    def test_reset_gives_fresh_registry(self, isolated_obs):
        obs.counter("test.total").inc(5)
        obs.reset()
        assert obs.metrics().snapshot()["counters"] == {}
        assert obs.on() is False

    def test_configure_writes_file(self, tmp_path):
        path = tmp_path / "run.jsonl"
        obs.configure(path, clock=FakeClock())
        try:
            obs.event("test.configured")
        finally:
            obs.finalise()
        lines = path.read_text().splitlines()
        assert len(lines) == 2  # the event plus finalise's snapshot
        assert json.loads(lines[1])["kind"] == "snapshot"


def write_trace(path):
    """A small deterministic trace with two span names and a snapshot."""
    tracer = Tracer.to_path(path, clock=FakeClock())
    for _ in range(3):
        with tracer.span("serve.request", mu=5):
            pass
    with tracer.span("storage.load"):
        pass
    tracer.event("serve.degraded", reason="spawn")
    registry = MetricsRegistry()
    registry.counter("serve.requests_total").inc(3)
    registry.gauge("serve.cache.size").set(2)
    registry.histogram("serve.request_seconds").observe(0.01)
    tracer.snapshot("final", registry.snapshot())
    tracer.close()


class TestReport:
    def test_summarize_trace(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        write_trace(path)
        summary = report.summarize_trace(path)
        assert summary["lines"] == 6
        assert summary["spans"]["serve.request"]["count"] == 3
        assert summary["spans"]["serve.request"]["sum"] == pytest.approx(0.75)
        assert summary["events"] == {"serve.degraded": 1}
        assert summary["snapshot"]["counters"] == {"serve.requests_total": 3}

    def test_render_is_deterministic_and_complete(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        write_trace(path)
        rendered = report.render_trace_report(path)
        assert rendered == report.render_trace_report(path)
        for needle in ("serve.request", "storage.load", "serve.degraded",
                       "serve.requests_total", "serve.cache.size",
                       "serve.request_seconds"):
            assert needle in rendered

    def test_render_empty_snapshot(self):
        assert report.render_metrics_snapshot({}) == "(no metrics recorded)"

    def test_malformed_trace_refuses_to_render(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"kind": "span", "name": "x", "ts": 0}\n')
        from repro.obs.schema import TraceSchemaError

        with pytest.raises(TraceSchemaError):
            report.summarize_trace(path)
