"""Deterministic fault injection: every durability claim ships with a crash test.

The robustness layer makes claims of the shape "no interrupted write ever
leaves a torn artifact" and "a dying pool worker never changes the built
index".  Claims like these cannot be tested by hoping the failure happens --
they need failures that are *injectable and replayable*.  This module is the
single registry of fault points the storage commit protocol and the
supervised parallel executor expose, plus the machinery to arm them
deterministically from tests.

Design:

* **Fault points are named sites.**  Production code calls
  :func:`fault_point` at the instants a crash or transient error is
  interesting -- after every chunk of bytes written to the column file,
  between the renames of the commit protocol, at worker task entry.  The
  call is a no-op (one attribute load and an ``is None`` check) unless a
  plan is armed, so shipping the instrumentation costs nothing.
* **Plans are explicit and deterministic.**  A :class:`FaultSpec` says
  exactly what happens and when: crash after N bytes at a write site, kill
  the worker executing task j, raise ``OSError`` the first k times a site is
  reached.  Nothing is sampled inside the library; tests that want
  randomised offsets draw them from their own seeded generator and pass the
  concrete numbers in, which makes every failing case replayable from its
  seed.
* **Plans cross process boundaries.**  The supervised executor runs tasks
  in forked/spawned workers; :func:`inject` therefore mirrors the armed plan
  into the ``REPRO_FAULTS`` environment variable, which child processes
  parse lazily on their first :func:`fault_point` call.  One-shot faults
  that must fire *exactly once across processes* (kill worker k on task j,
  then let the retried task succeed) coordinate through a ``token`` file
  created with ``O_CREAT | O_EXCL`` -- the filesystem is the only state the
  dying process and its replacement share.

Typical test usage::

    from repro.testing import FaultSpec, SimulatedCrash, inject

    with inject(FaultSpec(site="storage.columns.write", action="crash",
                          after_bytes=4096)):
        with pytest.raises(SimulatedCrash):
            index.save(path)          # dies mid-write, like a power cut
    # the target is still the old artifact, or absent -- never torn
    verify_artifact(path)

The known sites are listed in :data:`FAULT_SITES`; arming an unknown site is
an error (a typo must fail the test arming it, not silently never fire).
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

__all__ = [
    "FAULT_SITES",
    "FaultError",
    "FaultSpec",
    "SimulatedCrash",
    "active_plan",
    "fault_point",
    "inject",
]

#: Environment variable carrying the armed plan into worker processes.
ENV_VAR = "REPRO_FAULTS"

#: Registry of every fault point the library exposes, site -> description.
#: Tests arm these; production code never adds a site without listing it
#: here (``tests/testing/test_faults.py`` cross-checks instrumentation).
FAULT_SITES = {
    # storage/: the artifact commit protocol (see storage/integrity.py)
    "storage.columns.write": "after each chunk of bytes written to columns.bin "
                             "(arm with after_bytes to tear the column file)",
    "storage.header.write": "before header.json bytes reach the scratch dir",
    "storage.commit.fsync": "each fsync of the commit protocol (transients)",
    "storage.commit.pre_backup": "before the old artifact is renamed aside",
    "storage.commit.pre_swap": "old artifact renamed aside, new not yet in place "
                               "(the rollback window)",
    "storage.commit.pre_cleanup": "new artifact in place, backup not yet removed",
    # parallel/: the supervised executor (see parallel/supervise.py)
    "parallel.worker.task": "worker task entry (arm action='kill' with task=j)",
    "parallel.dispatch": "master-side task submission (transients)",
    # serve/: the concurrent serving tier (see serve/worker.py, serve/server.py)
    "serve.worker.request": "serving-worker request entry "
                            "(arm action='kill' with task=worker_id, or "
                            "action='hang' to wedge a worker mid-request)",
    "serve.worker.reload": "serving-worker artifact reload on a generation "
                           "bump (arm with task=worker_id)",
    "serve.worker.spawn": "front-end worker fork, before the process starts "
                          "(arm action='raise' with times=N to refuse the "
                          "pool N times and drive the degrade→recover path)",
    "serve.dispatch": "front-end dispatch, before a request is written to a "
                      "worker pipe (arm action='raise' for transients)",
    "serve.drain": "entry of the graceful-drain window, after draining "
                   "starts and before in-flight requests are awaited",
    "serve.recovery.probe": "each recovery-probe attempt while the pool is "
                            "degraded (arm action='raise' to pin the "
                            "circuit open)",
}


class FaultError(ValueError):
    """An injected plan is malformed (unknown site, missing parameter)."""


class SimulatedCrash(BaseException):
    """An injected process death.

    Derives from ``BaseException`` (like ``KeyboardInterrupt``) on purpose:
    a real crash runs no ``except Exception`` cleanup handlers, so code
    under test must not get to tidy up the very state whose crash-survival
    is being proven.  ``finally`` blocks still run -- acceptable, since a
    torn *file* state is what the storage tests probe, and file state is
    untouched by in-process ``finally`` release of OS handles.
    """

    def __init__(self, site: str, detail: str = ""):
        super().__init__(f"simulated crash at fault point {site!r}"
                         + (f" ({detail})" if detail else ""))
        self.site = site
        self.detail = detail


_ERROR_TYPES = {
    "OSError": OSError,
    "MemoryError": MemoryError,
    "TimeoutError": TimeoutError,
}


@dataclass(frozen=True)
class FaultSpec:
    """One armed fault: what happens when execution reaches ``site``.

    Parameters
    ----------
    site:
        A key of :data:`FAULT_SITES`.
    action:
        ``"crash"`` raises :class:`SimulatedCrash` (process-death stand-in),
        ``"raise"`` raises the exception named by ``error`` (transient
        failure stand-in), ``"kill"`` calls ``os._exit(70)`` -- a *real*
        process death for pool workers, no Python unwinding at all --
        and ``"hang"`` sleeps for ``seconds`` (default effectively
        forever) before letting execution continue: the wedged-worker /
        straggler stand-in that deadline and watchdog contracts are
        proven against.
    after_bytes:
        For byte-counting write sites: trigger only once at least this many
        bytes have been written.  ``None`` triggers on first reach.
    task:
        For worker sites: trigger only for this task index.  ``None``
        matches every task.
    times:
        Trigger at most this many times, then let execution pass -- the
        transient-failure model.  ``None`` means every time.
    token:
        Path used to count firings *across processes* (a worker that was
        killed cannot remember it already fired).  Each firing appends one
        byte under ``O_APPEND``; a file already holding ``times`` bytes
        means the fault is spent.  Required for ``kill`` specs with
        ``times`` (the supervisor's retry runs in a fresh worker).
    error:
        Exception type name for ``action="raise"`` (one of ``OSError``,
        ``MemoryError``, ``TimeoutError``).
    seconds:
        Sleep duration for ``action="hang"``.  ``None`` means 3600 s --
        far beyond any supervision timeout, i.e. wedged for the purposes
        of every contract under test, while still unwinding eventually if
        the test harness itself leaks the process.
    """

    site: str
    action: str = "crash"
    after_bytes: int | None = None
    task: int | None = None
    times: int | None = None
    token: str | None = None
    error: str = "OSError"
    seconds: float | None = None

    def validate(self) -> None:
        if self.site not in FAULT_SITES:
            raise FaultError(
                f"unknown fault site {self.site!r}; known sites: "
                f"{sorted(FAULT_SITES)}"
            )
        if self.action not in ("crash", "raise", "kill", "hang"):
            raise FaultError(f"unknown fault action {self.action!r}")
        if self.action == "raise" and self.error not in _ERROR_TYPES:
            raise FaultError(
                f"unknown error type {self.error!r}; known: {sorted(_ERROR_TYPES)}"
            )
        if self.action == "kill" and self.times is not None and self.token is None:
            raise FaultError(
                "a bounded kill needs a token file: the killed worker cannot "
                "carry an in-memory count across its own death"
            )


@dataclass
class _Plan:
    """The armed specs plus in-process firing counters."""

    specs: tuple[FaultSpec, ...]
    raw: str
    counts: dict[int, int] = field(default_factory=dict)


#: The plan armed in this process (parsed from ENV_VAR or set by inject()).
_active: _Plan | None = None
#: Raw env string _active was parsed from, to detect inherited changes.
_active_raw: str | None = None


def active_plan() -> tuple[FaultSpec, ...]:
    """The specs currently armed in this process (diagnostics/tests)."""
    plan = _refresh()
    return plan.specs if plan is not None else ()


def _refresh() -> _Plan | None:
    """Re-parse the environment when it changed (worker processes inherit it)."""
    global _active, _active_raw
    raw = os.environ.get(ENV_VAR)
    if raw is None:
        _active = None
        _active_raw = None
        return None
    if _active is None or _active_raw != raw:
        specs = tuple(FaultSpec(**record) for record in json.loads(raw))
        for spec in specs:
            spec.validate()
        _active = _Plan(specs=specs, raw=raw)
        _active_raw = raw
    return _active


def _spent(spec: FaultSpec, plan: _Plan, index: int) -> bool:
    """True when a bounded fault already fired ``times`` times; else count one."""
    if spec.times is None:
        return False
    if spec.token is not None:
        # Cross-process counter: one byte per firing, O_APPEND is atomic.
        try:
            fired = os.path.getsize(spec.token)
        except OSError:
            fired = 0
        if fired >= spec.times:
            return True
        fd = os.open(spec.token, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        try:
            os.write(fd, b"x")
        finally:
            os.close(fd)
        return False
    fired = plan.counts.get(index, 0)
    if fired >= spec.times:
        return True
    plan.counts[index] = fired + 1
    return False


def fault_point(site: str, *, bytes_written: int | None = None,
                task: int | None = None) -> None:
    """Production-code hook: trigger any armed fault matching ``site``.

    No-op unless a plan is armed (in-process via :func:`inject`, or
    inherited through the environment by a worker process).
    """
    if _active is None and ENV_VAR not in os.environ:
        return
    plan = _refresh()
    if plan is None:
        return
    for index, spec in enumerate(plan.specs):
        if spec.site != site:
            continue
        if spec.task is not None and spec.task != task:
            continue
        if spec.after_bytes is not None and (
            bytes_written is None or bytes_written < spec.after_bytes
        ):
            continue
        if _spent(spec, plan, index):
            continue
        if spec.action == "kill":
            os._exit(70)
        if spec.action == "hang":
            time.sleep(spec.seconds if spec.seconds is not None else 3600.0)
            continue
        if spec.action == "raise":
            raise _ERROR_TYPES[spec.error](
                f"injected {spec.error} at fault point {site!r}"
            )
        raise SimulatedCrash(site, detail=(
            f"after {bytes_written} bytes" if bytes_written is not None else ""
        ))


@contextmanager
def inject(*specs: FaultSpec):
    """Arm ``specs`` for the duration of a ``with`` block.

    The plan is armed both in-process (fast path) and in ``os.environ`` so
    that worker processes forked or spawned inside the block inherit it.
    Nesting replaces the outer plan for the inner block and restores it on
    exit.  Firing counters reset on entry, so a plan armed twice fires
    twice -- determinism across test repetitions.
    """
    global _active, _active_raw
    for spec in specs:
        spec.validate()
    raw = json.dumps([vars(spec) for spec in specs])
    previous_raw = os.environ.get(ENV_VAR)
    os.environ[ENV_VAR] = raw
    _active = _Plan(specs=tuple(specs), raw=raw)
    _active_raw = raw
    try:
        yield
    finally:
        if previous_raw is None:
            os.environ.pop(ENV_VAR, None)
        else:
            os.environ[ENV_VAR] = previous_raw
        _active = None
        _active_raw = None
