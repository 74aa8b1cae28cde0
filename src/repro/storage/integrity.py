"""Artifact durability: checksums, the fsync'd commit protocol, verify, recovery.

One artifact typically outlives every process that touches it -- it is built
once, then served, patched by ``repro update``, and re-served across many
sessions.  That makes it the single point whose corruption no later run can
detect on its own.  This module closes the three holes the original
stage-and-swap save left open:

**Checksums** (:func:`verify_checksums`).  The header records a CRC-32 per
column (``columns[name]["crc32"]``).  A bit flipped by a torn write, a
truncated copy, or bad storage fails :func:`verify_artifact` instead of
silently serving wrong similarity scores.  The CRC covers the column's own
bytes in ``columns.bin``; the writer computes it from the buffer it writes,
so a save checksums every byte exactly once, and deep verification
recomputes it over each memory-mapped column (:func:`column_checksum`).

**The commit protocol** (:func:`commit_artifact`, used by
``IndexArtifact.save``).  A save writes ``columns.bin`` + ``header.json``
into a scratch sibling (``.<name>.tmp-<pid>``), fsyncs both files *and* the
scratch directory, then commits::

    [old artifact at target]            -- crash here: old intact
    rename target  -> .<name>.bak-<pid> -- crash here: rollback window
    rename scratch -> target            -- crash here: backup removal pending
    fsync parent directory
    remove backup (and any stale dead-pid leftovers)

Every window leaves the parent directory holding either a valid old
artifact, a valid new artifact, or a valid old artifact parked under the
backup name -- never a torn mix, because a rename is atomic and nothing is
renamed before it is fully fsynced.  The fault points armed by
``tests/property/test_property_faults.py`` crash a writer inside every one
of these windows and assert exactly that.

**Recovery** (:func:`recover_artifact`, invoked by ``IndexArtifact.load``
when the target is missing but a backup is parked).  Rollback is
*lineage-checked*: the backup must itself verify, and when the interrupted
scratch left a readable header, the backup's update lineage must be a
prefix of the scratch's -- proof that the parked directory really is the
direct ancestor of the write that died, not an unrelated artifact that
happens to share the name.  Scratch directories whose writer pid is dead
are stale and are swept by the next save (:func:`clean_stale_scratch`) and
reported by ``repro index verify``.
"""

from __future__ import annotations

import json
import os
import shutil
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .. import obs
from ..testing.faults import fault_point
from .format import (
    BOUNDARY_COLUMN,
    COLUMNS_FILE,
    HEADER_FILE,
    ArtifactFormatError,
    map_columns,
    read_header,
)

__all__ = [
    "ArtifactIntegrityError",
    "VerifyReport",
    "backup_path",
    "check_save_target",
    "clean_stale_scratch",
    "column_checksum",
    "commit_artifact",
    "find_backups",
    "find_scratch",
    "fsync_directory",
    "fsync_file",
    "recover_artifact",
    "scratch_path",
    "verify_artifact",
    "verify_boundaries",
    "verify_checksums",
]


class ArtifactIntegrityError(ArtifactFormatError):
    """Stored bytes disagree with the header's checksums, or recovery failed.

    Subclasses :class:`~repro.storage.format.ArtifactFormatError` so every
    CLI path that already turns format errors into clean operator messages
    (``cluster --load``, ``index query``, ``serve``, ``update``) covers
    integrity failures with no extra handling.
    """


# ----------------------------------------------------------------------
# Checksums
# ----------------------------------------------------------------------
def column_checksum(column: np.ndarray) -> str:
    """CRC-32 of a column's raw bytes, as eight hex digits.

    This is the checksum the header records for the column.  CRC-32 (zlib)
    rather than a cryptographic hash: the adversary is bit rot and torn
    writes, not forgery, and crc32 runs at memory speed so deep verification
    stays cheap enough to run in CI on every artifact.
    """
    payload = np.ascontiguousarray(column).view(np.uint8).data
    return format(zlib.crc32(payload), "08x")


def verify_checksums(header: dict, columns: dict[str, np.ndarray],
                     directory: str | Path) -> int:
    """Compare every recorded column checksum against the stored bytes.

    ``columns`` are the stored columns of the artifact at ``directory`` (named
    in the error), as read.  Returns the number of columns checked.  Raises
    :class:`ArtifactIntegrityError` on the first mismatch.
    """
    for name, spec in header["columns"].items():
        recorded = spec["crc32"]
        actual = column_checksum(columns[name])
        if actual != recorded:
            raise ArtifactIntegrityError(
                f"{directory}: column {name!r} fails its checksum "
                f"(stored bytes crc32={actual}, header records {recorded}); "
                "the artifact is corrupt -- rebuild it or restore a backup"
            )
    return len(header["columns"])


def verify_boundaries(columns: dict[str, np.ndarray], directory: str | Path) -> None:
    """Prove a stored ε boundary table holds exactly the stored similarities.

    The snapper serves ε ranks straight from ``epsilon_boundaries``, so a
    table that lacks a stored value (or holds one no order stores) would
    merge or split cache keys while every checksum still passes.  The check
    is the definition: the table equals ``np.unique(no_similarities)``.
    Raises :class:`ArtifactIntegrityError` on a mismatch.
    """
    table = columns[BOUNDARY_COLUMN]
    expected = np.unique(columns["no_similarities"])
    if not np.array_equal(table, expected):
        missing = np.setdiff1d(expected, table).size
        extra = np.setdiff1d(table, expected).size
        raise ArtifactIntegrityError(
            f"{directory}: column {BOUNDARY_COLUMN!r} is not the sorted distinct "
            f"neighbor-order similarities ({missing} stored value(s) missing, "
            f"{extra} extra); the artifact is corrupt -- rebuild it"
        )


# ----------------------------------------------------------------------
# fsync helpers
# ----------------------------------------------------------------------
def fsync_file(path: Path) -> None:
    """Flush one file's bytes to stable storage (a rename must never beat them)."""
    fault_point("storage.commit.fsync")
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def fsync_directory(path: Path) -> None:
    """Flush a directory's entries (the renames themselves) to stable storage."""
    fault_point("storage.commit.fsync")
    fd = os.open(path, os.O_RDONLY | getattr(os, "O_DIRECTORY", 0))
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - some filesystems refuse dir fsync
        pass
    finally:
        os.close(fd)


# ----------------------------------------------------------------------
# Scratch / backup siblings
# ----------------------------------------------------------------------
def scratch_path(directory: Path, pid: int | None = None) -> Path:
    """The staging sibling a save by ``pid`` writes into."""
    pid = os.getpid() if pid is None else pid
    return directory.parent / f".{directory.name}.tmp-{pid}"


def backup_path(directory: Path, pid: int | None = None) -> Path:
    """The sibling the old artifact is parked under during a commit."""
    pid = os.getpid() if pid is None else pid
    return directory.parent / f".{directory.name}.bak-{pid}"


def _siblings(directory: Path, kind: str) -> list[Path]:
    if not directory.parent.is_dir():
        return []
    prefix = f".{directory.name}.{kind}-"
    return sorted(
        child for child in directory.parent.iterdir()
        if child.name.startswith(prefix) and child.is_dir()
    )


def find_scratch(directory: Path) -> list[Path]:
    """Every ``.tmp-<pid>`` scratch sibling of an artifact path."""
    return _siblings(Path(directory), "tmp")


def find_backups(directory: Path) -> list[Path]:
    """Every ``.bak-<pid>`` parked-old sibling of an artifact path."""
    return _siblings(Path(directory), "bak")


def _owner_pid(sibling: Path) -> int | None:
    try:
        return int(sibling.name.rsplit("-", 1)[1])
    except (IndexError, ValueError):
        return None


def _pid_alive(pid: int | None) -> bool:
    if pid is None or pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - pid exists, other user
        return True
    return True


def is_stale(sibling: Path) -> bool:
    """A scratch/backup sibling whose writer is this process or is dead."""
    pid = _owner_pid(sibling)
    return pid == os.getpid() or not _pid_alive(pid)


def clean_stale_scratch(directory: str | Path, *,
                        backups: bool = False) -> list[Path]:
    """Remove dead-writer scratch dirs (and, optionally, dead backups).

    Backups are only swept when ``backups=True`` -- a parked backup may be
    the *sole* valid copy of the artifact (the rollback window), so routine
    cleanup must never touch it; only a completed commit or a completed
    recovery may.
    """
    directory = Path(directory)
    removed = []
    candidates = find_scratch(directory)
    if backups:
        candidates += find_backups(directory)
    for sibling in candidates:
        if is_stale(sibling):
            shutil.rmtree(sibling, ignore_errors=True)
            removed.append(sibling)
    return removed


# ----------------------------------------------------------------------
# The commit protocol
# ----------------------------------------------------------------------
def check_save_target(directory: Path) -> None:
    """Refuse a save target that is neither an artifact nor an empty directory.

    The commit parks whatever sits at the target and then removes it, so a
    save into a directory of other files, or over a plain file, would delete
    them.  Raises :class:`~repro.storage.format.ArtifactFormatError` before
    anything is written; a missing target (nothing saved yet, or a commit
    that died between its renames) is accepted.
    """
    if not os.path.lexists(directory):
        return
    if directory.is_dir() and (
        (directory / HEADER_FILE).is_file() or next(directory.iterdir(), None) is None
    ):
        return
    raise ArtifactFormatError(
        f"{directory}: refusing to save over a path that is neither an index "
        f"artifact (no {HEADER_FILE}) nor an empty directory"
    )


def fsync_scratch(scratch: Path) -> None:
    """Flush a fully written scratch dir before any rename points at it."""
    fsync_file(scratch / COLUMNS_FILE)
    fsync_file(scratch / HEADER_FILE)
    fsync_directory(scratch)


def commit_artifact(scratch: Path, directory: Path) -> None:
    """Atomically swap a fully fsynced scratch dir into the target path.

    See the module docstring for the window-by-window crash analysis.  The
    caller guarantees ``scratch`` holds a complete artifact and has been
    through :func:`fsync_scratch`.
    """
    backup = backup_path(directory)
    fault_point("storage.commit.pre_backup")
    if directory.exists():
        if backup.exists():  # earlier crashed commit by this same pid
            shutil.rmtree(backup)
        os.replace(directory, backup)
    fault_point("storage.commit.pre_swap")
    os.rename(scratch, directory)
    fsync_directory(directory.parent)
    fault_point("storage.commit.pre_cleanup")
    if backup.exists():
        shutil.rmtree(backup)
    # The new state is committed; any leftover dead-pid siblings from older
    # interrupted saves are superseded and safe to sweep now -- and only now.
    clean_stale_scratch(directory, backups=True)


# ----------------------------------------------------------------------
# Recovery
# ----------------------------------------------------------------------
def _read_lineage(directory: Path) -> list | None:
    """An artifact dir's update lineage, or None when the header is unreadable."""
    try:
        header = json.loads((directory / HEADER_FILE).read_text())
    except (OSError, json.JSONDecodeError):
        return None
    updates = header.get("updates", []) if isinstance(header, dict) else None
    return updates if isinstance(updates, list) else None


def _lineage_is_prefix(old: list, new: list) -> bool:
    return len(old) <= len(new) and new[: len(old)] == old


def recover_artifact(path: str | Path) -> str | None:
    """Resolve the aftermath of a commit that died between its renames.

    Returns what happened: ``None`` when the target exists (nothing to
    recover -- staleness sweeping is the *save* path's job), ``"rolled-back"``
    when a parked backup was verified and restored to the target, and raises
    :class:`ArtifactIntegrityError` when a backup exists but cannot be
    proven to be the artifact's direct ancestor.

    The rollback is lineage-checked: when the interrupted scratch left a
    readable header, the backup's update lineage must be a prefix of the
    scratch's lineage.  A backup that fails this check is *not* the state
    the dying writer was replacing, and restoring it would resurrect an
    unrelated artifact under this name -- refusing loudly is the only safe
    move.
    """
    directory = Path(path)
    if directory.exists():
        return None
    backups = [b for b in find_backups(directory) if is_stale(b)]
    if not backups:
        return None
    # Newest parked state wins (several crashed commits can stack backups
    # only across different pids; each pid keeps at most one).
    backup = max(backups, key=lambda b: b.stat().st_mtime)
    try:
        header = read_header(backup)
        columns = map_columns(backup, header)
        verify_checksums(header, columns, backup)
        del columns
    except ArtifactFormatError as error:
        raise ArtifactIntegrityError(
            f"{directory}: missing, and the parked backup {backup.name!r} "
            f"does not verify ({error}); refusing to recover"
        ) from error
    backup_lineage = header["updates"]
    for scratch in find_scratch(directory):
        scratch_lineage = _read_lineage(scratch)
        if scratch_lineage is not None and not _lineage_is_prefix(
            backup_lineage, scratch_lineage
        ):
            raise ArtifactIntegrityError(
                f"{directory}: parked backup {backup.name!r} is not the "
                f"ancestor of the interrupted write {scratch.name!r} "
                f"(lineage {len(backup_lineage)} records is no prefix of "
                f"{len(scratch_lineage)}); refusing to roll back"
            )
    os.replace(backup, directory)
    fsync_directory(directory.parent)
    clean_stale_scratch(directory, backups=True)
    obs.counter("storage.recoveries_total").inc()
    obs.event("storage.recovered", backup=backup.name)
    return "rolled-back"


# ----------------------------------------------------------------------
# Verification
# ----------------------------------------------------------------------
@dataclass
class VerifyReport:
    """What ``verify_artifact`` established about one artifact directory."""

    path: str
    version: int
    num_columns: int
    checksums_checked: int
    deep: bool
    lineage_records: int
    stale_scratch: list[str] = field(default_factory=list)
    recovered: str | None = None

    def lines(self) -> list[str]:
        """Human-readable report, one fact per line (the CLI prints these)."""
        if self.deep:
            checks = (f"{self.checksums_checked}/{self.num_columns} columns "
                      "verified against stored bytes")
        else:
            checks = (f"{self.num_columns}/{self.num_columns} columns "
                      "carry checksums (fast mode: recorded, not recomputed)")
        out = [
            f"artifact: {self.path}",
            f"format: version {self.version}, {self.num_columns} columns, "
            f"header/column structure consistent",
            f"checksums: {checks}",
            f"lineage: {self.lineage_records} update batch(es)",
        ]
        if self.recovered:
            out.append(f"recovery: {self.recovered} from parked backup")
        if self.stale_scratch:
            out.append(
                "stale scratch: " + ", ".join(self.stale_scratch)
                + "  (leftover dead writers; the next save sweeps them, or "
                "pass --clean)"
            )
        else:
            out.append("stale scratch: none")
        return out


def verify_artifact(path: str | Path, *, deep: bool = False,
                    recover: bool = False) -> VerifyReport:
    """Prove an artifact directory internally consistent, or raise.

    The *fast* check (always on; also what every load performs) parses the
    header, checks every column record against its canonical dtype and
    offset and the column file against the size the records describe, and
    ties the column lengths to the declared graph shape.  The *deep* check
    additionally streams every column's byte range and compares CRC-32s
    against the header -- the check that catches a bit flipped after the
    header was written -- and proves the ε boundary table equals the
    distinct stored similarities (:func:`verify_boundaries`), which no
    checksum can.  ``recover=True`` first resolves a crashed commit
    (:func:`recover_artifact`) instead of failing on the missing target.

    Raises :class:`~repro.storage.format.ArtifactFormatError` (structural)
    or :class:`ArtifactIntegrityError` (checksum/recovery) -- both of which
    the CLI renders as clean operator errors.
    """
    directory = Path(path)
    started = time.perf_counter()
    with obs.span("storage.verify", deep=deep):
        recovered = recover_artifact(directory) if recover else None
        header = read_header(directory)
        columns = map_columns(directory, header)
        checked = 0
        if deep:
            checked = verify_checksums(header, columns, directory)
            verify_boundaries(columns, directory)
    obs.histogram("storage.verify_seconds").observe(time.perf_counter() - started)
    return VerifyReport(
        path=str(directory),
        version=int(header["version"]),
        num_columns=len(columns),
        checksums_checked=checked,
        deep=deep,
        lineage_records=len(header["updates"]),
        stale_scratch=[s.name for s in find_scratch(directory) if is_stale(s)]
        + [b.name for b in find_backups(directory) if is_stale(b)],
        recovered=recovered,
    )
