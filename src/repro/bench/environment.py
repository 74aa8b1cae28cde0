"""Environment capture and fingerprinting for benchmark runs.

Every performance number in the trajectory store is only comparable to
numbers recorded on the same *class* of machine: the committed
``BENCH_construction.json`` was captured on a 1-CPU container where the
``jobs > 1`` cells are honest slowdowns, and comparing them against an
8-core run would read as a 4x regression (or improvement) that never
happened.  The fingerprint pins down the fields that decide
comparability:

* ``cpu_count``   -- the affinity-mask core count (what ``jobs=0``
  resolves to), not the host's count: a cgroup-pinned container must
  not pretend its host's cores are available;
* ``platform`` / ``machine`` -- OS family and ISA;
* ``python`` / ``numpy``     -- the interpreter and kernel library the
  hot paths run on.

The git hash is captured *alongside* the fingerprint but deliberately
kept out of its key: the whole point of the trajectory is comparing
different commits on the same machine class.  Two runs compare iff
their fingerprint :meth:`~EnvironmentFingerprint.key` values are equal;
``repro bench gate`` refuses (with a structured warning, not a failure)
otherwise.

:func:`capture_environment` is the one implementation every payload
embeds: the ``perfbench`` results, the strategy ledger and the recorded
paper-figure runs.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform as platform_module
import subprocess
import sys
from dataclasses import dataclass, fields

__all__ = [
    "EnvironmentFingerprint",
    "FINGERPRINT_FIELDS",
    "capture_environment",
    "capture_fingerprint",
    "fingerprint_from_mapping",
    "git_revision",
    "visible_cpu_count",
]


@dataclass(frozen=True)
class EnvironmentFingerprint:
    """The fields that decide whether two benchmark runs may be compared.

    Any field may be ``None``: payloads imported from the older ad-hoc
    ``BENCH_*.json`` environment blocks only recorded a subset (or
    nothing at all), and an unknown field must not silently match a
    known one -- ``None`` hashes as its own value, so a partial
    fingerprint only ever matches an equally partial one.
    """

    cpu_count: int | None = None
    platform: str | None = None
    machine: str | None = None
    python: str | None = None
    numpy: str | None = None

    def key(self) -> str:
        """Stable 12-hex-digit digest of the fingerprint fields."""
        canonical = json.dumps(self.as_dict(), sort_keys=True)
        return hashlib.sha1(canonical.encode()).hexdigest()[:12]

    def as_dict(self) -> dict:
        return {field.name: getattr(self, field.name) for field in fields(self)}

    def describe(self) -> str:
        """One-line human rendering, e.g. for gate-refusal warnings."""
        parts = [
            f"{name}={value if value is not None else '?'}"
            for name, value in self.as_dict().items()
        ]
        return f"{self.key()} ({', '.join(parts)})"

    @property
    def complete(self) -> bool:
        return all(value is not None for value in self.as_dict().values())


#: Field names of :class:`EnvironmentFingerprint`, in declaration order.
FINGERPRINT_FIELDS = tuple(field.name for field in fields(EnvironmentFingerprint))


def visible_cpu_count() -> int:
    """Cores this process may actually use (affinity mask, not host count)."""
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def git_revision() -> str | None:
    """The working tree's short commit hash, or ``None`` outside a checkout."""
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        )
    except (OSError, subprocess.SubprocessError):  # pragma: no cover - no git
        return None
    revision = completed.stdout.strip()
    return revision if completed.returncode == 0 and revision else None


def capture_fingerprint() -> EnvironmentFingerprint:
    """Fingerprint of the running interpreter's environment."""
    import numpy

    return EnvironmentFingerprint(
        cpu_count=visible_cpu_count(),
        platform=platform_module.system(),
        machine=platform_module.machine(),
        python=sys.version.split()[0],
        numpy=numpy.__version__,
    )


def capture_environment() -> dict:
    """The environment block benchmark runners embed in their payloads.

    The fingerprint fields plus the run-scoped ``git_hash`` (kept out of
    the fingerprint key on purpose; see the module docstring).
    """
    environment = capture_fingerprint().as_dict()
    environment["git_hash"] = git_revision()
    return environment


def fingerprint_from_mapping(environment) -> EnvironmentFingerprint:
    """Fingerprint from a payload's ``environment`` block (may be partial).

    Unknown keys are ignored (the old blocks carried run-scoped extras
    like ``pool_startup_seconds``); missing keys stay ``None`` so a
    partially-recorded environment only matches an equally partial one.
    """
    if environment is None:
        environment = {}
    if not isinstance(environment, dict):
        raise TypeError(
            f"environment block must be a mapping, got {type(environment).__name__}"
        )
    return EnvironmentFingerprint(
        **{name: environment.get(name) for name in FINGERPRINT_FIELDS}
    )
