"""Tests for supervised pool dispatch (``repro.parallel.supervise``).

Two layers: the supervisor's retry/timeout/failure semantics against a
scripted fake pool (deterministic, no processes), and the executor's
degradation contract against a *real* pool whose failures are injected
through the fault harness -- a worker killed mid-build, a dispatch path
that raises -- asserting the built index stays bit-identical to the serial
build, exactly one structured warning fires, and no shared-memory segment
leaks.
"""

import multiprocessing
import warnings

import numpy as np
import pytest

from repro import ScanIndex
from repro.graphs import planted_partition
from repro.parallel import execute
from repro.parallel.execute import ParallelExecutor, active_shared_segments
from repro.parallel.supervise import (
    DegradedExecutionWarning,
    PoolBroken,
    SupervisionPolicy,
    TaskFailed,
    run_supervised,
)
from repro.testing import FaultSpec, inject

#: Fast-retry policy for fake-pool tests (no real work to wait for).
FAST = SupervisionPolicy(task_timeout=5.0, retries=2, backoff_base=0.001,
                         backoff_cap=0.002)


@pytest.fixture
def no_floor(monkeypatch):
    """Let tiny test graphs exercise the real pool machinery."""
    monkeypatch.setattr(execute, "PARALLEL_FLOOR_ARCS", 0)


@pytest.fixture
def short_leash(monkeypatch):
    """Make the default policy detect a dead worker in seconds, not minutes."""
    monkeypatch.setattr(
        execute, "SupervisionPolicy",
        lambda: SupervisionPolicy(task_timeout=10.0, retries=2,
                                  backoff_base=0.01, backoff_cap=0.05),
    )


# ----------------------------------------------------------------------
# The scripted pool
# ----------------------------------------------------------------------
class _FakeResult:
    def __init__(self, outcome):
        self._outcome = outcome

    def get(self, timeout):
        if self._outcome == "timeout":
            raise multiprocessing.TimeoutError()
        if isinstance(self._outcome, BaseException):
            raise self._outcome
        return self._outcome


class _FakePool:
    """A pool whose outcome per (task, attempt) is scripted up front.

    ``plan`` maps ``(task_index, attempt)`` -- both starting at 1 for
    attempts -- to ``"timeout"``, an exception instance, or ``"broken"``
    (submission itself raises).  Unscripted attempts succeed.  Tasks are
    identified by their first argument.
    """

    def __init__(self, plan=None):
        self.plan = plan or {}
        self.submissions = []
        self._attempts = {}

    def apply_async(self, func, args):
        index = args[0]
        attempt = self._attempts.get(index, 0) + 1
        self._attempts[index] = attempt
        self.submissions.append((index, attempt, args))
        outcome = self.plan.get((index, attempt), "ok")
        if outcome == "broken":
            raise RuntimeError("pool machinery is gone")
        return _FakeResult(outcome)


def _tasks(n):
    return [(i,) for i in range(n)]


class TestRunSupervised:
    def test_clean_run_submits_each_task_once(self):
        pool = _FakePool()
        run_supervised(pool, None, _tasks(4), policy=FAST)
        assert [s[:2] for s in pool.submissions] == [(i, 1) for i in range(4)]

    def test_transient_error_is_retried(self):
        pool = _FakePool({(1, 1): OSError("flake")})
        run_supervised(pool, None, _tasks(3), policy=FAST)
        assert pool._attempts == {0: 1, 1: 2, 2: 1}

    def test_timeout_is_retried(self):
        pool = _FakePool({(0, 1): "timeout"})
        run_supervised(pool, None, _tasks(2), policy=FAST)
        assert pool._attempts[0] == 2

    def test_memory_error_is_transient_by_default(self):
        pool = _FakePool({(0, 1): MemoryError()})
        run_supervised(pool, None, _tasks(1), policy=FAST)
        assert pool._attempts[0] == 2

    def test_retries_exhausted_raises_task_failed(self):
        plan = {(0, attempt): OSError("persistent") for attempt in (1, 2, 3)}
        pool = _FakePool(plan)
        with pytest.raises(TaskFailed) as info:
            run_supervised(pool, None, _tasks(1), policy=FAST)
        assert info.value.index == 0
        assert info.value.attempts == FAST.retries + 1
        assert isinstance(info.value.cause, OSError)

    def test_non_transient_error_fails_immediately(self):
        pool = _FakePool({(1, 1): ValueError("shape mismatch: a bug")})
        with pytest.raises(TaskFailed) as info:
            run_supervised(pool, None, _tasks(3), policy=FAST)
        assert info.value.attempts == 1  # never retried: not transient
        assert pool._attempts[1] == 1

    def test_submission_failure_raises_pool_broken(self):
        pool = _FakePool({(2, 1): "broken"})
        with pytest.raises(PoolBroken, match="cannot accept tasks"):
            run_supervised(pool, None, _tasks(3), policy=FAST)

    def test_respawn_hook_supplies_retry_arguments(self):
        pool = _FakePool({(1, 1): "timeout", (1, 2): "timeout"})
        calls = []

        def respawn(index, attempt):
            calls.append((index, attempt))
            return (index, f"fresh-block-{attempt}")

        run_supervised(pool, None, _tasks(3), policy=FAST, respawn=respawn)
        assert calls == [(1, 1), (1, 2)]
        retried = [s[2] for s in pool.submissions if s[0] == 1 and s[1] > 1]
        assert retried == [(1, "fresh-block-1"), (1, "fresh-block-2")]

    def test_retry_without_respawn_reuses_original_args(self):
        pool = _FakePool({(0, 1): OSError()})
        run_supervised(pool, None, [(0, "payload")], policy=FAST)
        assert pool.submissions[-1][2] == (0, "payload")


class TestPolicy:
    def test_backoff_doubles_and_caps(self):
        policy = SupervisionPolicy(backoff_base=0.1, backoff_cap=0.35)
        assert policy.backoff(1) == pytest.approx(0.1)
        assert policy.backoff(2) == pytest.approx(0.2)
        assert policy.backoff(3) == pytest.approx(0.35)  # capped, not 0.4

    def test_injected_dispatch_fault_becomes_pool_broken(self):
        # The degradation contract hinges on this translation: an error on
        # the submission path must surface as PoolBroken, never leak raw.
        pool = _FakePool()
        with inject(FaultSpec(site="parallel.dispatch", action="raise")):
            with pytest.raises(PoolBroken):
                run_supervised(pool, None, _tasks(1), policy=FAST)


# ----------------------------------------------------------------------
# The executor's degradation contract (real pool, injected failures)
# ----------------------------------------------------------------------
def _columns(index):
    return [
        np.asarray(c) for c in (
            index.similarities.values,
            index.neighbor_order.neighbors,
            index.neighbor_order.similarities,
            index.core_order.indptr,
            index.core_order.vertices,
            index.core_order.thresholds,
        )
    ]


def _graph():
    return planted_partition(3, 12, p_intra=0.5, p_inter=0.03, seed=11)


class TestExecutorLifecycle:
    def test_healthy_close_drains_instead_of_terminating(self):
        executor = ParallelExecutor(2)
        pool = executor._ensure_pool()
        events = []
        original_close, original_join = pool.close, pool.join
        pool.close = lambda: (events.append("close"), original_close())[1]
        pool.join = lambda: (events.append("join"), original_join())[1]
        pool.terminate = lambda: events.append("terminate")
        executor.close()
        assert events == ["close", "join"]

    def test_degraded_close_terminates(self):
        executor = ParallelExecutor(2)
        executor._degraded = True
        pool = executor._ensure_pool()
        events = []
        original_terminate = pool.terminate
        pool.terminate = lambda: (events.append("terminate"),
                                  original_terminate())[1]
        pool.close = lambda: events.append("close")
        executor.close()
        assert "terminate" in events and "close" not in events

    def test_close_is_idempotent(self):
        executor = ParallelExecutor(2)
        executor._ensure_pool()
        executor.close()
        executor.close()


class TestDegradation:
    def test_broken_dispatch_degrades_to_identical_serial(self, no_floor):
        graph = _graph()
        serial = ScanIndex.build(graph, jobs=1)
        with inject(FaultSpec(site="parallel.dispatch", action="raise")):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                degraded = ScanIndex.build(graph, jobs=2)
        structured = [w for w in caught
                      if issubclass(w.category, DegradedExecutionWarning)]
        assert len(structured) == 1  # once per executor; the similarity pass dispatches
        assert "bit-identical" in str(structured[0].message)
        for a, b in zip(_columns(serial), _columns(degraded)):
            assert np.array_equal(a, b)

    def test_no_segment_leaks_after_forced_failure(self, no_floor):
        # /dev/shm is machine-wide: a leaked column outlives the process.
        assert active_shared_segments() == 0
        with inject(FaultSpec(site="parallel.dispatch", action="raise")):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                ScanIndex.build(_graph(), jobs=2)
        assert active_shared_segments() == 0

    def test_degraded_executor_skips_the_pool_thereafter(self, no_floor):
        executor = ParallelExecutor(2)
        executor._degraded = True
        try:
            rng = np.random.default_rng(3)
            packed = np.sort(rng.integers(0, 2**20, size=256))
            offsets = np.array([0, 64, 128, 256], dtype=np.int64)
            order = executor.segmented_argsort(
                packed, offsets, universe=2**20, max_segment=2**20
            )
            assert executor._pool is None  # never built one
            assert np.array_equal(packed[order], np.sort(packed))
        finally:
            executor.close()


class TestWorkerDeath:
    def test_killed_worker_is_retried_bit_identically(
        self, no_floor, short_leash, tmp_path
    ):
        # Kill (real os._exit) the worker running task 0, exactly once; the
        # supervisor's timeout notices the lost task and the retry -- in a
        # respawned worker, accumulating into a fresh block -- must leave
        # the build indistinguishable from the serial one.
        graph = _graph()
        serial = ScanIndex.build(graph, jobs=1)
        token = tmp_path / "kill-once"
        with inject(FaultSpec(site="parallel.worker.task", action="kill",
                              task=0, times=1, token=str(token))):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                survived = ScanIndex.build(graph, jobs=2)
        assert token.stat().st_size == 1  # the kill really fired
        assert not [w for w in caught
                    if issubclass(w.category, DegradedExecutionWarning)]
        for a, b in zip(_columns(serial), _columns(survived)):
            assert np.array_equal(a, b)
        assert active_shared_segments() == 0

    def test_unrecoverable_worker_deaths_degrade_not_hang(
        self, no_floor, monkeypatch, tmp_path
    ):
        # Every attempt of task 0 dies (times high enough to outlast the
        # retry budget): supervision must give up in bounded time and the
        # serial path must still deliver the identical index.
        monkeypatch.setattr(
            execute, "SupervisionPolicy",
            lambda: SupervisionPolicy(task_timeout=5.0, retries=1,
                                      backoff_base=0.01, backoff_cap=0.02),
        )
        graph = _graph()
        serial = ScanIndex.build(graph, jobs=1)
        token = tmp_path / "kill-always"
        with inject(FaultSpec(site="parallel.worker.task", action="kill",
                              task=0, times=10, token=str(token))):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                degraded = ScanIndex.build(graph, jobs=2)
        structured = [w for w in caught
                      if issubclass(w.category, DegradedExecutionWarning)]
        assert len(structured) == 1
        for a, b in zip(_columns(serial), _columns(degraded)):
            assert np.array_equal(a, b)
        assert active_shared_segments() == 0
