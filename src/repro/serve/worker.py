"""Worker process of the concurrent serving tier.

Each worker holds one :class:`~repro.serve.session.ClusterSession` over its
own mmap of the *same* saved artifact -- the zero-recompute load means the
page cache backs every worker with one physical copy, so per-worker memory
is near-free.  Workers receive requests over a pipe from the front end
(:mod:`repro.serve.server`), answer them through their session (whose
ε-snapped LRU stays hot because the front end routes each ``(μ, ε-rank)``
pair to a fixed worker), and format the response line themselves so the
front end only forwards bytes.

Generation contract: every request carries the server's artifact
generation.  A worker that sees a newer generation than the one it loaded
drops its index and session and reloads from disk before answering -- the
crash-safe artifact swap of ``repro update`` guarantees the reload sees
either the complete old or the complete new artifact, and the front end
only bumps the generation after the swap is durable, so every answer at
generation ``g`` reflects the artifact as of ``g``.

Observability contract: a forked worker inherits the parent's registry and
tracer, so the first statement is ``obs.reset()`` -- otherwise every worker
would re-count the front end's metrics and interleave writes into its trace
file.  When the front end traces to ``PATH``, each worker traces to
``PATH.worker<id>``; the ``("metrics", request_id)`` message syncs the
session's counters into the worker registry and replies with a snapshot,
which the front end merges for ``!metrics``.

The request entry is a registered fault site (``serve.worker.request``), so
the deterministic fault harness can kill or wedge a specific worker
mid-traffic to drive the restart/degradation paths.

Memory contract: a worker keeps its freed query scratch on the heap
(:func:`keep_query_scratch_on_the_heap`), so cache misses reuse memory
instead of faulting fresh pages in on every request.
"""

from __future__ import annotations

import ctypes
from pathlib import Path

from .. import obs
from ..testing.faults import fault_point
from . import wire

#: Worker exit code for an unreadable artifact (distinct from fault kills).
EXIT_BAD_ARTIFACT = 3

#: glibc ``mallopt`` parameter numbers (``<malloc.h>``).
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
#: Freed blocks up to this size stay on the heap: glibc's own ceiling for
#: its dynamic mmap threshold on 64-bit, above the ~25 MB of temporaries
#: one miss allocates on a 464k-edge graph.
SCRATCH_HEAP_BYTES = 32 << 20


def keep_query_scratch_on_the_heap() -> None:
    """Let the process reuse freed query scratch instead of unmapping it.

    A cache miss allocates and frees megabytes of temporaries (the ε-arc
    arrays of its core prefixes).  glibc maps every block above its mmap
    threshold afresh and returns heap tops above its trim threshold, so by
    default a worker faults its scratch back in on each miss; both
    thresholds adapt only to what the process happens to free.  On the
    2-vCPU VM, in a worker that reloads once a second over a 464k-edge
    artifact, that was ~3,000 minor faults and ~27 ms per miss against ~0
    and ~19 ms with fixed thresholds.  A no-op where libc has no
    ``mallopt``.
    """
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is not None:
        mallopt(_M_MMAP_THRESHOLD, SCRATCH_HEAP_BYTES)
        mallopt(_M_TRIM_THRESHOLD, 2 * SCRATCH_HEAP_BYTES)


def worker_main(
    artifact_path: str | Path,
    worker_id: int,
    connection,
    *,
    cache_size: int = 256,
    deterministic: bool = False,
    generation: int = 0,
    trace_path: str | None = None,
) -> None:
    """Request loop of one serving worker; runs until ``stop`` or EOF.

    Messages from the front end are tuples; the first element selects:

    ``("serve", request_id, generation, mu, epsilon)``
        Answer one query.  Replies ``("ok", request_id, line)`` with the
        formatted response, or ``("error", request_id, message)`` for a
        request rejected by validation.
    ``("stats", request_id)``
        Replies ``("ok", request_id, session_stats_dict)``.
    ``("metrics", request_id)``
        Replies ``("ok", request_id, registry_snapshot_dict)`` after
        syncing the session's counters into the worker's registry.
    ``("stop",)``
        Clean shutdown.
    """
    from ..core.index import ScanIndex

    # Shed the forked-in parent observability state before anything else.
    obs.reset()
    keep_query_scratch_on_the_heap()
    if trace_path is not None:
        obs.configure(trace_path)

    try:
        index = ScanIndex.load(artifact_path)
    except Exception as error:  # pragma: no cover - exercised via restarts
        try:
            connection.send(("dead", None, f"worker {worker_id} cannot load: {error}"))
        finally:
            raise SystemExit(EXIT_BAD_ARTIFACT)
    session = index.session(cache_size=cache_size)
    reloads = obs.counter("serve.worker.reloads_total")

    try:
        while True:
            try:
                message = connection.recv()
            except EOFError:
                return
            kind = message[0]
            if kind == "stop":
                return
            if kind == "stats":
                _, request_id = message
                stats = dict(session.stats())
                stats["generation"] = generation
                connection.send(("ok", request_id, stats))
                continue
            if kind == "metrics":
                _, request_id = message
                session.sync_metrics()
                connection.send(("ok", request_id, obs.metrics().snapshot()))
                continue
            _, request_id, request_generation, mu, epsilon = message
            # Fault site: chaos tests arm kills/crashes here to exercise the
            # front end's restart and degradation contract.
            fault_point("serve.worker.request", task=worker_id)
            if request_generation != generation:
                # The artifact was updated (or explicitly invalidated) after
                # we loaded: remap it.  Reload, do not repair -- the artifact
                # on disk is always a complete committed build.  Fault site:
                # chaos kills/wedges the reload to prove a generation flip
                # cannot strand a request.
                fault_point("serve.worker.reload", task=worker_id)
                with obs.span(
                    "serve.reload", side="worker", generation=request_generation
                ):
                    index = ScanIndex.load(artifact_path)
                    session = index.session(cache_size=cache_size)
                reloads.inc()
                obs.event(
                    "serve.worker.reload",
                    worker=worker_id,
                    generation=request_generation,
                )
                generation = request_generation
            try:
                if obs.on():
                    with obs.span(
                        "serve.worker.request", worker=worker_id, mu=mu
                    ) as request_span:
                        result = session.serve(
                            mu, epsilon, deterministic_borders=deterministic
                        )
                        request_span.attrs["cache"] = (
                            "hit" if result.from_cache else "miss"
                        )
                else:
                    result = session.serve(
                        mu, epsilon, deterministic_borders=deterministic
                    )
            except ValueError as error:
                connection.send(("error", request_id, str(error)))
                continue
            connection.send(("ok", request_id, wire.format_response(result)))
    finally:
        # Close out the worker's trace (clean stop or EOF after a parent
        # crash): sync the session counters and write the final snapshot so
        # a per-worker trace file is self-contained like the front end's.
        if obs.on():
            session.sync_metrics()
        obs.finalise()
