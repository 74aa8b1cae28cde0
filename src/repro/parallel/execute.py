"""Real multicore execution: worker processes over shared-memory columns.

Everything else in :mod:`repro.parallel` is the *simulated* runtime: the
:class:`~repro.parallel.scheduler.Scheduler` executes sequentially and
charges work/span so the paper's asymptotic claims are testable.  This
module is the other half the paper actually ran on 96 hyper-threads: a
``multiprocessing`` pool whose workers operate directly on
``multiprocessing.shared_memory``-backed numpy columns -- the arc arrays are
mapped, never pickled -- so index construction uses the machine's cores for
wall-clock time, not just for accounting.

Two construction stages shard:

* **the edge-similarity pass** (:meth:`ParallelExecutor.sharded_numerators`):
  the oriented arcs split into contiguous ranges balanced by candidate-pair
  counts; each worker accumulates its range's triangle contributions into a
  private output column and the master sums the columns in shard order.
  Restricted to unweighted graphs, where every contribution is a bounded
  integer and float64 addition is exact in any order -- which is what makes
  the merged result **bit-identical** to the serial accumulation.  Weighted
  graphs keep the serial similarity pass (float summation order would
  differ) while their order builds still shard.
* **the segmented order sorts** (:meth:`ParallelExecutor.segmented_argsort`):
  the packed ``(segment, key)`` codes split along segment boundaries; each
  worker computes the stable permutation of its slice.  Packed codes of
  earlier segments are strictly smaller than those of later segments, so the
  concatenation of per-shard stable sorts *is* the global stable sort --
  bit-identical by construction, whichever sort
  :func:`~repro.parallel.sorting.packed_argsort` picks per shard.

The determinism/merge contract, in one line: **shard boundaries are pure
functions of the input, every worker's output is deterministic, and merges
are exact (integer sums / disjoint writes) -- so the built index is
bit-identical to the serial build for every stored column, at any worker
count.**  Property tests in ``tests/parallel/test_execute.py`` enforce it.

Degradation is graceful and loud exactly once: ``jobs > 1`` falls back to
serial execution -- with a single :class:`RuntimeWarning` per reason -- when
``multiprocessing.shared_memory`` is unavailable on the platform or the
graph sits below :data:`PARALLEL_FLOOR_ARCS`, the measured size floor under
which pool startup dominates any possible win (recorded alongside the
scaling numbers in ``BENCH_construction.json``).

Dispatch is *supervised* (:mod:`repro.parallel.supervise`): every task runs
under a per-task timeout with bounded exponential-backoff retry, so a dying
or wedged worker costs one timeout, not a hung build -- and when the pool is
beyond saving, the executor tears it down, releases every shared-memory
segment (guaranteed by ``finally`` on all error paths; see
:func:`active_shared_segments` for the leak check the tests run), and
finishes the stage on the bit-identical serial path with a single
:class:`~repro.parallel.supervise.DegradedExecutionWarning`.  Worker deaths
are injectable deterministically through the ``parallel.worker.task`` fault
point (:mod:`repro.testing.faults`); the chaos suite kills workers
mid-build and asserts the index still matches the serial build bit for bit.
"""

from __future__ import annotations

import multiprocessing
import os
import warnings
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

try:  # pragma: no cover - import guard exercised via monkeypatching
    from multiprocessing import shared_memory as _shared_memory
except ImportError:  # pragma: no cover
    _shared_memory = None

from .. import obs
from ..testing.faults import fault_point
from .sorting import packed_argsort
from .supervise import (
    DegradedExecutionWarning,
    PoolBroken,
    SupervisionPolicy,
    TaskFailed,
    run_supervised,
)

__all__ = [
    "PARALLEL_FLOOR_ARCS",
    "ParallelExecutor",
    "active_shared_segments",
    "executor_for",
    "resolve_jobs",
    "shared_memory_available",
    "visible_cpu_count",
]

#: Arc-count floor under which ``jobs > 1`` silently stays serial (after one
#: warning): forking the pool plus exporting/attaching the shared columns
#: costs ~25-80 ms (measured, ``BENCH_construction.json`` records the pool
#: startup of the benchmarking machine), which a serial build below this
#: size finishes outright.
PARALLEL_FLOOR_ARCS = 65_536

#: Upper bound on similarity-pass shards regardless of ``jobs``.  Every
#: shard owns a private ``num_edges`` float64 accumulation column, so the
#: slab grows linearly with the shard count -- at 96 workers on an
#: orkut-scale graph that would be tens of gigabytes of /dev/shm for a pass
#: that is memory-bandwidth bound long before then.  Sixteen concurrent
#: accumulators keep the slab at 16 columns while the order sorts (whose
#: shards are slices, not columns) still use every worker.
MAX_NUMERATOR_SHARDS = 16

#: Reasons already warned about (one warning per reason per process).
_warned: set[str] = set()


def shared_memory_available() -> bool:
    """True when ``multiprocessing.shared_memory`` is importable."""
    return _shared_memory is not None


def visible_cpu_count() -> int:
    """Cores this process may actually schedule on.

    ``os.cpu_count()`` reports the host's cores and ignores CPU affinity
    and cgroup pinning; inside a container limited to 2 of 64 cores it
    would fork 64 workers that timeshare 2.  The affinity mask is the
    honest count where the platform exposes it.
    """
    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):  # pragma: no cover - non-Linux platforms
        return os.cpu_count() or 1


def resolve_jobs(jobs: int) -> int:
    """Resolve the public ``jobs`` knob: ``0`` means every visible core."""
    jobs = int(jobs)
    if jobs < 0:
        raise ValueError(f"jobs must be >= 0 (0 = all cores), got {jobs}")
    if jobs == 0:
        return visible_cpu_count()
    return jobs


def _warn_once(key: str, message: str) -> None:
    # The warning fires once per process; the counter counts every trigger,
    # so post-hoc inspection sees how often a fallback happened, not just
    # that it ever did.
    obs.counter(f"parallel.fallback.{key.replace('-', '_')}_total").inc()
    if key not in _warned:
        _warned.add(key)
        warnings.warn(message, RuntimeWarning, stacklevel=3)


def executor_for(jobs: int, *, num_arcs: int, policy: SupervisionPolicy | None = None):
    """Context manager yielding a :class:`ParallelExecutor`, or ``None``.

    The serial outcomes -- ``jobs`` resolving to 1, shared memory being
    unavailable, or the graph sitting below :data:`PARALLEL_FLOOR_ARCS` --
    yield ``None`` so callers take the *identical* serial code path; the
    latter two warn once per process.
    """
    jobs = resolve_jobs(jobs)
    if jobs <= 1:
        return nullcontext(None)
    if not shared_memory_available():  # pragma: no cover - platform dependent
        _warn_once(
            "shared-memory",
            "multiprocessing.shared_memory is unavailable on this platform; "
            f"jobs={jobs} falls back to serial execution",
        )
        return nullcontext(None)
    if num_arcs < PARALLEL_FLOOR_ARCS:
        _warn_once(
            "size-floor",
            f"graph below the parallel size floor ({PARALLEL_FLOOR_ARCS} arcs, "
            "where worker-pool startup dominates any speedup); "
            f"jobs={jobs} falls back to serial execution",
        )
        return nullcontext(None)
    return ParallelExecutor(jobs, policy=policy)


# ----------------------------------------------------------------------
# Shared-memory column plumbing
# ----------------------------------------------------------------------
#: Names of shared-memory segments this process created and has not yet
#: released.  The leak check in the tests forces dispatch failures and then
#: asserts this is empty -- /dev/shm is a machine-wide resource, and a
#: leaked orkut-sized column outlives the process that leaked it.
_live_segments: set[str] = set()


def active_shared_segments() -> int:
    """Shared-memory segments currently owned (created, unreleased) here."""
    return len(_live_segments)


@dataclass(frozen=True)
class SharedColumn:
    """Name/shape/dtype triple a worker needs to map one shared column."""

    shm_name: str
    shape: tuple
    dtype: str


def _attach(spec: SharedColumn):
    """Worker-side map of a shared column; caller must close the handle."""
    handle = _shared_memory.SharedMemory(name=spec.shm_name)
    array = np.ndarray(spec.shape, dtype=np.dtype(spec.dtype), buffer=handle.buf)
    return handle, array


class _ColumnSet:
    """Master-side owner of the shared blocks of one pool dispatch."""

    def __init__(self) -> None:
        self._handles: list = []

    def share(self, array: np.ndarray) -> SharedColumn:
        """Copy ``array`` into a fresh shared block and return its spec."""
        array = np.ascontiguousarray(array)
        handle = _shared_memory.SharedMemory(create=True, size=max(array.nbytes, 1))
        self._handles.append(handle)
        _live_segments.add(handle.name)
        view = np.ndarray(array.shape, dtype=array.dtype, buffer=handle.buf)
        view[...] = array
        return SharedColumn(handle.name, tuple(array.shape), array.dtype.str)

    def allocate(self, shape: tuple, dtype) -> tuple[SharedColumn, np.ndarray]:
        """Zero-filled shared output block plus the master's view of it."""
        dtype = np.dtype(dtype)
        size = max(int(np.prod(shape)) * dtype.itemsize, 1)
        handle = _shared_memory.SharedMemory(create=True, size=size)
        self._handles.append(handle)
        _live_segments.add(handle.name)
        view = np.ndarray(shape, dtype=dtype, buffer=handle.buf)
        view[...] = 0
        return SharedColumn(handle.name, tuple(shape), dtype.str), view

    def release(self) -> None:
        """Release every block, tolerating per-handle failure.

        One close/unlink raising (a segment a crashed worker already
        tore down, say) must not strand the remaining segments -- this
        runs in ``finally`` on every dispatch path, success or not, and
        the accounting in :data:`_live_segments` only drops a name once
        its unlink was attempted.
        """
        for handle in self._handles:
            try:
                handle.close()
            except Exception:  # pragma: no cover - platform specific
                pass
            try:
                handle.unlink()
            except Exception:  # pragma: no cover - already gone
                pass
            _live_segments.discard(handle.name)
        self._handles.clear()


# ----------------------------------------------------------------------
# Worker entry points (top-level so every start method can pickle them)
# ----------------------------------------------------------------------
def _sort_worker(
    task_index: int,
    packed_spec: SharedColumn,
    out_spec: SharedColumn,
    lo: int,
    hi: int,
    universe: int,
    max_segment: int,
) -> None:
    """Stable permutation of ``packed[lo:hi]`` written to ``out[lo:hi]``.

    Shards write disjoint slices of one shared output column, so no
    synchronisation is needed; positions are absolute (offset by ``lo``).
    Safe to re-run after a worker death: the slice is fully overwritten
    with a pure function of the (read-only) input, so a retry -- even one
    racing a straggler that was slow rather than dead -- produces the same
    bytes.
    """
    fault_point("parallel.worker.task", task=task_index)
    handles = []
    try:
        handle, packed = _attach(packed_spec)
        handles.append(handle)
        handle, out = _attach(out_spec)
        handles.append(handle)
        out[lo:hi] = packed_argsort(
            packed[lo:hi], universe=universe, max_segment=max_segment
        )
        out[lo:hi] += lo
    finally:
        for handle in handles:
            handle.close()


def _numerator_worker(
    task_index: int,
    column_specs: dict,
    out_spec: SharedColumn,
    num_vertices: int,
    arc_lo: int,
    arc_hi: int,
    chunk_pairs: int,
) -> None:
    """Triangle contributions of oriented arcs ``[arc_lo, arc_hi)``.

    Accumulates into the task's shared output block through the exact
    chunk loop of the serial batch engine
    (:func:`repro.similarity.batch.accumulate_oriented_contributions`), so
    every worker's partial column is the integer-valued array the serial
    pass would have produced for the same arc range.

    Accumulation is *not* idempotent, so a retry of a task whose first
    attempt may have partially run is never aimed at the same block: the
    supervisor's ``respawn`` hook hands each retry a fresh zeroed block
    and the merge reads only the block of the attempt that completed.
    """
    from ..similarity.batch import accumulate_oriented_contributions

    fault_point("parallel.worker.task", task=task_index)
    handles = []
    try:
        columns = {}
        for name, spec in column_specs.items():
            handle, array = _attach(spec)
            handles.append(handle)
            columns[name] = array
        handle, out = _attach(out_spec)
        handles.append(handle)
        accumulate_oriented_contributions(
            out,
            (
                columns["indptr"],
                columns["targets"],
                columns["edge_ids"],
                None,  # the sharded pass runs only on unweighted graphs
            ),
            columns["sources"],
            columns["comp"],
            num_vertices,
            arc_lo,
            arc_hi,
            chunk_pairs=chunk_pairs,
        )
    finally:
        for handle in handles:
            handle.close()


# ----------------------------------------------------------------------
# The executor
# ----------------------------------------------------------------------
class ParallelExecutor:
    """A worker pool that executes build stages over shared numpy columns.

    One executor spans one construction (or one dynamic-update re-sort):
    :meth:`~repro.core.index.ScanIndex.build` opens it, threads it through
    the similarity engine and both order builds, and closes it -- the pool
    forks once, every stage's columns are exported to shared memory for the
    duration of its dispatch, and nothing is pickled but shard bounds.

    Use as a context manager (or rely on :func:`executor_for`, which also
    applies the serial-fallback gates)::

        with ParallelExecutor(jobs=4) as executor:
            order = executor.segmented_argsort(packed, offsets, ...)

    Dispatches are supervised (per-task timeout, bounded retry with
    backoff; see :mod:`repro.parallel.supervise`).  When supervision gives
    up -- retries exhausted, pool broken -- the executor marks itself
    degraded, tears the pool down, warns once with a
    :class:`~repro.parallel.supervise.DegradedExecutionWarning`, and every
    stage (the failed one included) completes on the bit-identical serial
    path.  Shared-memory segments are released in ``finally`` on all
    paths; :func:`active_shared_segments` must read zero afterwards.
    """

    def __init__(self, jobs: int, *, policy: SupervisionPolicy | None = None) -> None:
        jobs = resolve_jobs(jobs)
        if jobs < 2:
            raise ValueError(f"ParallelExecutor needs at least 2 jobs, got {jobs}")
        if not shared_memory_available():  # pragma: no cover - platform dependent
            raise RuntimeError("multiprocessing.shared_memory is unavailable")
        self.jobs = jobs
        self.policy = policy if policy is not None else SupervisionPolicy()
        start_methods = multiprocessing.get_all_start_methods()
        method = "fork" if "fork" in start_methods else start_methods[0]
        self._context = multiprocessing.get_context(method)
        self._pool = None
        self._degraded = False
        # A pool that ever lost a task attempt (worker dead past its
        # timeout) holds a permanently stuck entry in its result cache;
        # close()+join() on it would block forever, so teardown must
        # terminate() it even though every dispatch ultimately succeeded.
        self._tainted = False

    # -- lifecycle ------------------------------------------------------
    def __enter__(self) -> "ParallelExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @property
    def degraded(self) -> bool:
        """True once supervision has abandoned the pool for this executor."""
        return self._degraded

    def _ensure_pool(self):
        if self._pool is None:
            self._pool = self._context.Pool(self.jobs)
        return self._pool

    def close(self) -> None:
        """Shut the pool down (idempotent).

        A healthy pool is drained cleanly -- ``close()`` then ``join()``,
        so workers finish and exit rather than being killed mid-breath
        (``terminate()`` here used to reap workers abruptly even after
        flawless builds).  ``terminate()`` remains the teardown for a pool
        declared broken *or* one that ever lost a task attempt: both hold
        state a clean join would block on forever (dead workers, or a
        result-cache entry whose producer died).
        """
        if self._pool is not None:
            try:
                if self._degraded or self._tainted:
                    self._pool.terminate()
                else:
                    self._pool.close()
                self._pool.join()
            finally:
                self._pool = None

    def _degrade(self, stage: str, error: BaseException) -> None:
        """Abandon the pool: tear it down and warn exactly once."""
        obs.counter("parallel.degraded_total").inc()
        obs.event("parallel.degraded", stage=stage)
        first = not self._degraded
        self._degraded = True
        if self._pool is not None:
            try:
                self._pool.terminate()
                self._pool.join()
            except Exception:  # pragma: no cover - teardown of a broken pool
                pass
            self._pool = None
        if first:
            warnings.warn(
                DegradedExecutionWarning(
                    f"parallel {stage} degraded to serial execution "
                    f"(supervised dispatch failed: {error}); the result is "
                    "unaffected -- the serial path is bit-identical"
                ),
                stacklevel=4,
            )

    def _dispatch(self, func, tasks, *, stage: str, respawn=None) -> bool:
        """Run tasks supervised; False means the caller must go serial."""
        if self._degraded:
            return False
        try:
            lost = run_supervised(
                self._ensure_pool(), func, tasks,
                policy=self.policy, respawn=respawn,
            )
            if lost:
                self._tainted = True
            return True
        except (TaskFailed, PoolBroken) as error:
            self._degrade(stage, error)
            return False

    # -- the segmented order sorts --------------------------------------
    def segmented_argsort(
        self,
        packed: np.ndarray,
        segment_offsets: np.ndarray,
        *,
        universe: int,
        max_segment: int,
    ) -> np.ndarray:
        """Stable ascending permutation of packed segment/key codes, sharded.

        Shard bounds are element-count quantiles snapped outward to segment
        boundaries -- a pure function of the input, independent of worker
        scheduling -- and each shard's stable permutation is computed
        independently (radix or argsort, each shard by its own size; the
        choice cannot change the permutation).  Because segment blocks are
        ascending in the packed code space, concatenating the shard
        permutations equals the global stable permutation bit for bit.
        """
        total = int(packed.shape[0])
        bounds = self._segment_bounds(segment_offsets, total)
        if self._degraded or total == 0 or bounds.shape[0] <= 2:
            # Nothing to shard (empty input, one segment swallowing every
            # split point, or an executor already degraded): the serial
            # permutation is the same answer.
            return packed_argsort(packed, universe=universe, max_segment=max_segment)
        columns = _ColumnSet()
        with obs.span(
            "parallel.segmented_argsort",
            elements=total,
            shards=int(bounds.shape[0] - 1),
        ):
            try:
                packed_spec = columns.share(packed)
                out_spec, out = columns.allocate((total,), np.int64)
                tasks = [
                    (index, packed_spec, out_spec, int(lo), int(hi),
                     universe, max_segment)
                    for index, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:]))
                ]
                # Sort tasks overwrite disjoint slices deterministically, so a
                # retry re-runs with the original arguments (no respawn hook).
                if self._dispatch(_sort_worker, tasks, stage="segmented argsort"):
                    return out.copy()
            finally:
                columns.release()
        # Supervision gave up: finish this stage on the serial path, which
        # produces the identical permutation.
        return packed_argsort(packed, universe=universe, max_segment=max_segment)

    def _segment_bounds(self, segment_offsets: np.ndarray, total: int) -> np.ndarray:
        """Shard boundaries: jobs-quantiles snapped to segment starts."""
        segment_offsets = np.asarray(segment_offsets, dtype=np.int64)
        targets = (total * np.arange(1, self.jobs, dtype=np.int64)) // self.jobs
        snapped = segment_offsets[np.searchsorted(segment_offsets, targets)]
        return np.unique(np.concatenate(
            [np.zeros(1, dtype=np.int64), snapped, np.asarray([total], dtype=np.int64)]
        ))

    # -- the edge-similarity pass ---------------------------------------
    def sharded_numerators(
        self,
        graph,
        *,
        chunk_pairs: int,
    ) -> np.ndarray | None:
        """Triangle contributions of every canonical edge (no base term).

        Returns ``None`` when the pass must stay serial: weighted graphs
        (contributions are float products whose summation order the merge
        would change), empty orientations, and an executor whose pool
        supervision has given up (the caller then runs the serial pass,
        which computes the identical numerators).  Otherwise shards the
        oriented arcs by candidate-pair counts, lets every worker run the
        serial chunk loop on its range, and sums the per-worker columns in
        shard order -- exact, because unweighted contributions are bounded
        integers.
        """
        if graph.edge_weights is not None or self._degraded:
            return None
        oriented = graph.degree_oriented_csr()
        num_oriented = int(oriented.indices.shape[0])
        num_edges = graph.num_edges
        if num_oriented == 0 or num_edges == 0:
            return None
        pair_counts = np.diff(oriented.indptr)[oriented.indices]
        cumulative = np.cumsum(pair_counts)
        total_pairs = int(cumulative[-1])
        shards = min(self.jobs, MAX_NUMERATOR_SHARDS)
        targets = (total_pairs * np.arange(1, shards, dtype=np.int64)) // shards
        cuts = np.searchsorted(cumulative, targets, side="left")
        bounds = np.unique(np.concatenate(
            [np.zeros(1, dtype=np.int64), cuts,
             np.asarray([num_oriented], dtype=np.int64)]
        ))
        columns = _ColumnSet()
        with obs.span(
            "parallel.similarity_pass",
            arcs=num_oriented,
            pairs=total_pairs,
            shards=int(bounds.shape[0] - 1),
        ):
            try:
                specs = {
                    "indptr": columns.share(oriented.indptr),
                    "targets": columns.share(oriented.indices),
                    "edge_ids": columns.share(oriented.edge_ids),
                    "sources": columns.share(graph.oriented_arc_sources()),
                    "comp": columns.share(graph.oriented_search_keys()),
                }
                num_tasks = int(bounds.shape[0] - 1)
                # One private block per task rather than one big slab: retries
                # of a non-idempotent accumulation must land in *fresh* memory,
                # and per-task blocks let the respawn hook swap a single shard's
                # output without touching its siblings.
                outputs: dict[int, np.ndarray] = {}
                tasks = []
                for row, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
                    out_spec, out = columns.allocate((num_edges,), np.float64)
                    outputs[row] = out
                    tasks.append((
                        row, specs, out_spec, graph.num_vertices,
                        int(lo), int(hi), chunk_pairs,
                    ))

                def respawn(index: int, attempt: int) -> tuple:
                    # Accumulation is += into the block, so an attempt that
                    # partially ran (or a straggler still limping along) has
                    # poisoned its block.  Hand the retry a fresh zeroed one and
                    # point the merge at it; the old block is never read again.
                    out_spec, out = columns.allocate((num_edges,), np.float64)
                    outputs[index] = out
                    base = tasks[index]
                    return (base[0], base[1], out_spec) + base[3:]

                if not self._dispatch(
                    _numerator_worker, tasks,
                    stage="similarity pass", respawn=respawn,
                ):
                    return None
                # Shard order; integer-valued columns, so the sum is exact and
                # equal to the serial left-to-right accumulation.  Copy out of
                # shared memory before the blocks are released below.
                merged = outputs[0].copy()
                for row in range(1, num_tasks):
                    merged += outputs[row]
                return merged
            finally:
                columns.release()
