"""Observability overhead benchmark: tracing off must cost (almost) nothing.

The observability layer's charter (`src/repro/obs/`) is that the disabled
path -- the default for every user who never passes ``--trace`` -- stays
within noise of uninstrumented code, and the enabled path changes no
output byte.  This benchmark pins both, plus the structural guards that
make the timing claim trustworthy:

``disabled``
    A seeded ``(μ, ε)`` request stream served through a fresh session with
    the null tracer installed (the default).  Afterwards the tracer must
    report **zero** events written and the registry must hold no gated
    per-request serve metrics -- proof the hot path really skipped the
    instrumentation rather than writing somewhere invisible.
``enabled``
    The same stream, streaming spans to a real JSONL file.  Every response
    line must be bit-identical to the disabled pass, and the trace must
    pass the closed schema of :mod:`repro.obs.schema`.

The two modes run as :data:`PAIRS` short back-to-back pass pairs, the
order alternating from pair to pair, and the headline ``overhead_pct`` is
one minus the *median* of the per-pair enabled/disabled throughput ratios.
A shared machine's slow moments hit a few passes, not one mode's whole
measurement, so the median pair sees both modes under the same load (the
best of three longer passes per mode read 0-50% on one tree).
``--assert-overhead`` turns the acceptance bound into an exit code for CI;
the threshold is deliberately generous because tiny-graph request
latencies sit in the microseconds.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_obs_overhead.py            # measure
    PYTHONPATH=src python benchmarks/bench_obs_overhead.py --tiny --assert-overhead 0.25

or through pytest (smoke-sized; asserts the structural guards, not timing).
``--output FILE`` also writes the results as JSON; without it nothing is
written.
"""

from __future__ import annotations

import argparse
import json
import statistics
import tempfile
import time
from pathlib import Path

from repro import ScanIndex, obs
from repro.obs import NULL_TRACER, Tracer
from repro.bench import capture_environment, format_table
from repro.graphs import planted_partition
from repro.obs.metrics import MetricsRegistry
from repro.obs.schema import validate_trace_path
from repro.serve import wire

#: (num_clusters, cluster_size, p_intra, p_inter) ladder.
DEFAULT_LADDER = [
    (10, 40, 0.30, 0.010),
    (25, 50, 0.30, 0.006),
]
TINY_LADDER = [(4, 20, 0.30, 0.02)]

#: Disabled/enabled pass pairs per rung, and requests per pass (~40 ms).
PAIRS = 21
REQUESTS = 200


def request_stream(index, count):
    """A seeded request mix biased toward repeats (cache hits and misses)."""
    import numpy as np

    rng = np.random.default_rng(42)
    base = [
        (int(rng.integers(2, 9)), float(rng.uniform(0.15, 0.85)))
        for _ in range(max(count // 4, 1))
    ]
    return [base[int(rng.integers(0, len(base)))] for _ in range(count)]


def serve_pass(index, requests):
    """Serve the stream once through a fresh session; return (rps, lines, session)."""
    session = index.session(cache_size=64)
    lines = []
    started = time.perf_counter()
    for mu, epsilon in requests:
        lines.append(wire.format_response(session.serve(mu, epsilon)))
    elapsed = time.perf_counter() - started
    return len(requests) / elapsed, lines, session


def disabled_pass(index, requests, registry):
    """One pass with the null tracer (the default state) over ``registry``."""
    previous = obs.install(tracer=NULL_TRACER, registry=registry)
    try:
        rps, lines, _ = serve_pass(index, requests)
        events = obs.tracer().events_written
    finally:
        obs.install(tracer=previous[0], registry=previous[1])
    # Structural guards: the disabled pass must not have traced anything,
    # and the gated per-request path must not have touched the registry.
    assert events == 0, "disabled tracer wrote events"
    gated = [name for name in registry.snapshot()["histograms"]
             if name.startswith("serve.")]
    assert not gated, f"gated serve histograms written while disabled: {gated}"
    return rps, lines


def enabled_pass(index, requests, tracer, registry):
    """One pass streaming real spans through ``tracer``."""
    previous = obs.install(tracer=tracer, registry=registry)
    try:
        rps, lines, session = serve_pass(index, requests)
        session.sync_metrics()
    finally:
        obs.install(tracer=previous[0], registry=previous[1])
    return rps, lines


def measure(shape, requests_per_pass=REQUESTS, pairs=PAIRS):
    """One ladder rung: alternating disabled/enabled passes over the same stream."""
    clusters, size, p_intra, p_inter = shape
    graph = planted_partition(clusters, size, p_intra=p_intra,
                              p_inter=p_inter, seed=11)
    index = ScanIndex.build(graph)
    requests = request_stream(index, requests_per_pass)

    disabled_registry, enabled_registry = MetricsRegistry(), MetricsRegistry()
    disabled_rps, enabled_rps = [], []
    with tempfile.TemporaryDirectory() as scratch:
        trace = Path(scratch) / "overhead.jsonl"
        tracer = Tracer.to_path(trace)
        try:
            for pair in range(pairs):
                if pair % 2 == 0:
                    off = disabled_pass(index, requests, disabled_registry)
                    on = enabled_pass(index, requests, tracer, enabled_registry)
                else:
                    on = enabled_pass(index, requests, tracer, enabled_registry)
                    off = disabled_pass(index, requests, disabled_registry)
                assert on[1] == off[1], "tracing changed a response byte"
                disabled_rps.append(off[0])
                enabled_rps.append(on[0])
        finally:
            previous = obs.install(tracer=tracer, registry=enabled_registry)
            obs.finalise()
            obs.install(tracer=previous[0], registry=previous[1])
        counts = validate_trace_path(trace)
        trace_bytes = trace.stat().st_size
    # Every request is either a traced compute span or a cache-hit event.
    assert counts["span"] + counts["event"] >= len(requests), \
        "enabled passes traced fewer records than one stream's requests"

    ratio = statistics.median(
        enabled / disabled for enabled, disabled in zip(enabled_rps, disabled_rps)
    )
    return {
        "graph": f"ppart-{clusters}x{size}",
        "vertices": graph.num_vertices,
        "edges": graph.num_edges,
        "requests_per_pass": len(requests),
        "pass_pairs": pairs,
        "disabled_rps": statistics.median(disabled_rps),
        "enabled_rps": statistics.median(enabled_rps),
        "overhead_pct": max(0.0, 1.0 - ratio),
        "trace_spans": counts["span"],
        "trace_bytes": trace_bytes,
        "bit_identical": True,
    }


def run(ladder, output_path):
    results = {
        "benchmark": "obs_overhead",
        "environment": capture_environment(),
        "graphs": [measure(shape) for shape in ladder],
    }
    rows = [
        [r["graph"], r["vertices"], r["edges"], f"{r['disabled_rps']:.0f}",
         f"{r['enabled_rps']:.0f}", f"{r['overhead_pct']:.1%}",
         r["trace_spans"], r["trace_bytes"]]
        for r in results["graphs"]
    ]
    print(format_table(
        ["graph", "vertices", "edges", "off rps", "on rps",
         "tracing cost", "spans", "trace bytes"],
        rows,
    ))
    if output_path is not None:
        output_path.write_text(json.dumps(results, indent=2, sort_keys=True))
        print(f"wrote {output_path}")
    return results


def test_obs_overhead_smoke(tmp_path):
    """Smoke: structural guards hold on a tiny rung (no timing assertions)."""
    results = run(TINY_LADDER, tmp_path / "BENCH_obs_overhead.json")
    record = results["graphs"][0]
    assert record["bit_identical"] is True
    assert record["trace_spans"] > 0
    assert record["trace_bytes"] > 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tiny", action="store_true", help="CI-sized smoke rung")
    parser.add_argument("--output", type=Path, default=None,
                        help="also write the results as JSON to this path")
    parser.add_argument("--assert-overhead", type=float, default=None,
                        metavar="FRACTION",
                        help="exit 1 when the enabled-tracing throughput cost "
                             "exceeds FRACTION (e.g. 0.25); structural guards "
                             "always assert")
    args = parser.parse_args(argv)
    results = run(TINY_LADDER if args.tiny else DEFAULT_LADDER, args.output)
    if args.assert_overhead is not None:
        for record in results["graphs"]:
            if record["overhead_pct"] > args.assert_overhead:
                print(
                    f"ERROR: tracing cost {record['overhead_pct']:.1%} on "
                    f"{record['graph']} exceeds the "
                    f"{args.assert_overhead:.0%} bound"
                )
                return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
