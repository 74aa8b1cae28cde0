"""Sqlite store of benchmark payloads, the input of ``repro bench gate``.

The ``BENCH_*.json`` files and the pipeline benchmark's payloads each have
their own schema; this store normalises all of them into one queryable
shape without losing a single cell.  A *run* is one execution of one
benchmark; every scalar the benchmark measured becomes a *cell* keyed by

``(benchmark, graph rung, cell, metric)``

where the rung is the ladder entry the number belongs to (``orkut-like-
large``, ``v1250``), the cell is the mode/config group inside the rung
(``jobs=4``, ``modes.cold``, ``durability``) and the metric is the leaf
name (``seconds``, ``requests_per_second``).  Runs additionally carry an
environment fingerprint (:mod:`repro.bench.environment`) -- the key the
regression gate refuses to compare across -- a timestamp, the git hash,
and a provenance ``source`` string.

Losslessness is a contract, not an aspiration: next to the normalised
key every cell stores its exact JSON path and value, and
:meth:`BenchStore.export_run` reconstructs the original payload
bit-for-bit.  The property suite round-trips every committed
``BENCH_*.json`` through import -> export and asserts equality.

Malformed payloads are rejected with :class:`BenchStoreError` before
anything is written: a benchmark result that cannot be keyed is a bug in
the producer, and a half-imported run would poison every later
comparison.
"""

from __future__ import annotations

import json
import math
import sqlite3
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

from .environment import EnvironmentFingerprint, fingerprint_from_mapping

__all__ = ["DEFAULT_DB_NAME", "BenchStore", "BenchStoreError", "CellRecord", "RunInfo"]

#: Default store filename used by ``repro bench`` when no ``--db`` is given.
DEFAULT_DB_NAME = "BENCH_trajectory.sqlite"


class BenchStoreError(ValueError):
    """A payload or query that the results store must reject cleanly."""


_SCHEMA = """
CREATE TABLE IF NOT EXISTS environments (
    id        INTEGER PRIMARY KEY,
    key       TEXT NOT NULL UNIQUE,
    cpu_count INTEGER,
    platform  TEXT,
    machine   TEXT,
    python    TEXT,
    numpy     TEXT
);
CREATE TABLE IF NOT EXISTS runs (
    id             INTEGER PRIMARY KEY,
    benchmark      TEXT NOT NULL,
    recorded_at    TEXT NOT NULL,
    environment_id INTEGER NOT NULL REFERENCES environments(id),
    git_hash       TEXT,
    source         TEXT
);
CREATE TABLE IF NOT EXISTS cells (
    id      INTEGER PRIMARY KEY,
    run_id  INTEGER NOT NULL REFERENCES runs(id) ON DELETE CASCADE,
    graph   TEXT NOT NULL,
    cell    TEXT NOT NULL,
    metric  TEXT NOT NULL,
    value   REAL,
    payload TEXT NOT NULL,
    path    TEXT NOT NULL,
    UNIQUE (run_id, path)
);
CREATE INDEX IF NOT EXISTS cells_by_run ON cells (run_id);
CREATE INDEX IF NOT EXISTS cells_by_key ON cells (graph, cell, metric);
"""


@dataclass(frozen=True)
class RunInfo:
    """One recorded benchmark run (without its cells)."""

    id: int
    benchmark: str
    recorded_at: str
    git_hash: str | None
    source: str | None
    fingerprint: EnvironmentFingerprint

    @property
    def fingerprint_key(self) -> str:
        return self.fingerprint.key()


@dataclass(frozen=True)
class CellRecord:
    """One measured scalar: normalised key plus the lossless original."""

    graph: str
    cell: str
    metric: str
    value: float | None
    payload: object
    path: tuple

    @property
    def key(self) -> tuple[str, str, str]:
        return (self.graph, self.cell, self.metric)


# ----------------------------------------------------------------------
# Payload validation and flattening
# ----------------------------------------------------------------------

#: Identifying field used to label the entries of known list-shaped cell
#: groups -- ``jobs=4`` reads better than ``jobs[1]`` and stays stable
#: when a runner reorders or extends its grid.
_ELEMENT_ID_KEYS = {
    "jobs": "jobs",
    "order_microbench": "order",
    "batches": "fraction",
    "configs": "workers",
    "overload_configs": "max_inflight",
}


def _coerce_leaf(value, path):
    """Return ``value`` as a plain JSON scalar, or raise :class:`BenchStoreError`.

    Numpy scalars are unwrapped via ``item()`` -- runners hand the store
    their in-memory result dicts, which legitimately carry ``np.float64``
    timings.  Non-finite floats are rejected: a NaN cell can never be
    compared, so storing one only defers the error to gate time.
    """
    if hasattr(value, "item") and not isinstance(value, (bool, int, float, str)):
        try:
            value = value.item()
        except (TypeError, ValueError):
            pass
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        if not math.isfinite(value):
            raise BenchStoreError(
                f"non-finite number at {_render_path(path)}: {value!r}"
            )
        return value
    raise BenchStoreError(
        f"unsupported value at {_render_path(path)}: {type(value).__name__}"
    )


def _render_path(path) -> str:
    return "".join(
        f"[{part}]" if isinstance(part, int) else ("." + part if rendered else part)
        for rendered, part in enumerate(path)
    ) or "<root>"


def _element_label(list_name: str, element, index: int) -> str:
    id_key = _ELEMENT_ID_KEYS.get(list_name)
    if id_key is not None and isinstance(element, dict):
        identifier = element.get(id_key)
        if isinstance(identifier, (bool, int, float, str)):
            return f"{id_key}={identifier}"
    return f"{list_name}[{index}]"


def _rung_label(entry, index: int) -> str:
    if isinstance(entry, dict):
        name = entry.get("name")
        if isinstance(name, str) and name:
            return name
        vertices = entry.get("num_vertices")
        if isinstance(vertices, int):
            return f"v{vertices}"
    return f"graphs[{index}]"


def _flatten_into(value, raw_path, parts, graph, out):
    """Walk ``value`` depth-first, emitting ``(path, graph, cell_parts, leaf)``."""
    if isinstance(value, dict) and value:
        for key, child in value.items():
            if not isinstance(key, str):
                raise BenchStoreError(
                    f"non-string key at {_render_path(raw_path)}: {key!r}"
                )
            if isinstance(child, list) and child:
                for index, element in enumerate(child):
                    _flatten_into(
                        element,
                        raw_path + (key, index),
                        parts + (_element_label(key, element, index),),
                        graph,
                        out,
                    )
            else:
                _flatten_into(child, raw_path + (key,), parts + (key,), graph, out)
    elif isinstance(value, list) and value:
        for index, element in enumerate(value):
            _flatten_into(
                element, raw_path + (index,), parts + (f"[{index}]",), graph, out
            )
    elif isinstance(value, (dict, list)):
        # Empty containers are leaves; the payload column keeps their type.
        out.append((raw_path, graph, parts, value))
    else:
        out.append((raw_path, graph, parts, _coerce_leaf(value, raw_path)))


def flatten_payload(payload) -> list[tuple]:
    """Flatten a benchmark payload into cell rows, validating as it goes.

    Entries of a top-level ``graphs`` list are the ladder rungs: their
    cells carry the rung's label in the ``graph`` column.  Everything
    else (environment blocks, single-graph summaries, config grids) is
    keyed at run level with an empty ``graph``.
    """
    if not isinstance(payload, dict):
        raise BenchStoreError(
            f"payload must be a mapping, got {type(payload).__name__}"
        )
    benchmark = payload.get("benchmark")
    if not isinstance(benchmark, str) or not benchmark:
        raise BenchStoreError(
            "payload must carry a non-empty string 'benchmark' field"
        )
    environment = payload.get("environment")
    if environment is not None and not isinstance(environment, dict):
        raise BenchStoreError("'environment' block must be a mapping")

    out: list[tuple] = []
    seen_labels: dict[str, int] = {}
    for key, child in payload.items():
        if key == "graphs" and isinstance(child, list) and child:
            for index, entry in enumerate(child):
                label = _rung_label(entry, index)
                # Two rungs must never merge: disambiguate repeats.
                repeats = seen_labels.get(label, 0)
                seen_labels[label] = repeats + 1
                if repeats:
                    label = f"{label}#{repeats + 1}"
                _flatten_into(entry, ("graphs", index), (), label, out)
        elif isinstance(child, list) and child:
            for index, element in enumerate(child):
                _flatten_into(
                    element,
                    (key, index),
                    (_element_label(key, element, index),),
                    "",
                    out,
                )
        else:
            _flatten_into(child, (key,), (key,), "", out)
    if not any(isinstance(leaf, (bool, int, float)) for _, _, _, leaf in out):
        raise BenchStoreError("payload contains no numeric cells")
    return out


def _unflatten(rows) -> dict:
    """Rebuild the original payload from ``(path, leaf)`` rows in order."""
    root: dict = {}
    for path, leaf in rows:
        container = root
        for position, part in enumerate(path):
            if position == len(path) - 1:
                if isinstance(container, list):
                    container.append(leaf)
                else:
                    container[part] = leaf
            else:
                child_type = list if isinstance(path[position + 1], int) else dict
                if isinstance(container, list):
                    if part == len(container):
                        container.append(child_type())
                    container = container[part]
                else:
                    container = container.setdefault(part, child_type())
    return root


# ----------------------------------------------------------------------
# The store
# ----------------------------------------------------------------------
class BenchStore:
    """Sqlite-backed store of benchmark runs and their cells."""

    def __init__(self, path: str | Path = ":memory:"):
        self.path = str(path)
        self._connection = sqlite3.connect(self.path)
        self._connection.executescript(_SCHEMA)
        self._connection.commit()

    # -- lifecycle -----------------------------------------------------
    def close(self) -> None:
        self._connection.close()

    def __enter__(self) -> "BenchStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- writing -------------------------------------------------------
    def record(
        self,
        payload: dict,
        *,
        source: str | None = None,
        recorded_at: str | None = None,
        git_hash: str | None = None,
    ) -> int:
        """Validate and store one benchmark payload; return the run id.

        The environment fingerprint is derived from the payload's own
        ``environment`` block (partial blocks yield partial fingerprints
        that only match equally partial ones).  ``git_hash`` defaults to
        the block's ``git_hash`` field when present.
        """
        rows = flatten_payload(payload)
        environment = payload.get("environment") or {}
        fingerprint = fingerprint_from_mapping(environment)
        if git_hash is None:
            recorded = environment.get("git_hash")
            git_hash = recorded if isinstance(recorded, str) else None
        if recorded_at is None:
            recorded_at = datetime.now(timezone.utc).isoformat(timespec="seconds")

        cursor = self._connection.cursor()
        try:
            environment_id = self._environment_id(cursor, fingerprint)
            cursor.execute(
                "INSERT INTO runs (benchmark, recorded_at, environment_id,"
                " git_hash, source) VALUES (?, ?, ?, ?, ?)",
                (
                    payload["benchmark"],
                    recorded_at,
                    environment_id,
                    git_hash,
                    source,
                ),
            )
            run_id = cursor.lastrowid
            cursor.executemany(
                "INSERT INTO cells (run_id, graph, cell, metric, value,"
                " payload, path) VALUES (?, ?, ?, ?, ?, ?, ?)",
                [
                    (
                        run_id,
                        graph,
                        ".".join(parts[:-1]),
                        parts[-1] if parts else "",
                        (
                            float(leaf)
                            if isinstance(leaf, (bool, int, float))
                            else None
                        ),
                        json.dumps(leaf),
                        json.dumps(list(path)),
                    )
                    for path, graph, parts, leaf in rows
                ],
            )
        except BaseException:
            self._connection.rollback()
            raise
        self._connection.commit()
        return run_id

    def import_file(self, path: str | Path, **kwargs) -> int:
        """Import one ``BENCH_*.json`` payload file; return the run id."""
        path = Path(path)
        try:
            payload = json.loads(path.read_text())
        except OSError as error:
            raise BenchStoreError(f"cannot read {path}: {error}") from error
        except json.JSONDecodeError as error:
            raise BenchStoreError(f"{path} is not valid JSON: {error}") from error
        kwargs.setdefault("source", path.name)
        return self.record(payload, **kwargs)

    # -- reading -------------------------------------------------------
    def _environment_id(self, cursor, fingerprint: EnvironmentFingerprint) -> int:
        key = fingerprint.key()
        row = cursor.execute(
            "SELECT id FROM environments WHERE key = ?", (key,)
        ).fetchone()
        if row is not None:
            return row[0]
        cursor.execute(
            "INSERT INTO environments (key, cpu_count, platform, machine,"
            " python, numpy) VALUES (?, ?, ?, ?, ?, ?)",
            (
                key,
                fingerprint.cpu_count,
                fingerprint.platform,
                fingerprint.machine,
                fingerprint.python,
                fingerprint.numpy,
            ),
        )
        return cursor.lastrowid

    _RUN_QUERY = (
        "SELECT r.id, r.benchmark, r.recorded_at, r.git_hash, r.source,"
        " e.cpu_count, e.platform, e.machine, e.python, e.numpy"
        " FROM runs r JOIN environments e ON e.id = r.environment_id"
    )

    @staticmethod
    def _run_from_row(row) -> RunInfo:
        return RunInfo(
            id=row[0],
            benchmark=row[1],
            recorded_at=row[2],
            git_hash=row[3],
            source=row[4],
            fingerprint=EnvironmentFingerprint(
                cpu_count=row[5],
                platform=row[6],
                machine=row[7],
                python=row[8],
                numpy=row[9],
            ),
        )

    def run(self, run_id: int) -> RunInfo:
        row = self._connection.execute(
            self._RUN_QUERY + " WHERE r.id = ?", (run_id,)
        ).fetchone()
        if row is None:
            raise BenchStoreError(f"no run with id {run_id}")
        return self._run_from_row(row)

    def cells(self, run_id: int) -> list[CellRecord]:
        """Every cell of one run, in original document order."""
        self.run(run_id)  # raise cleanly on unknown ids
        rows = self._connection.execute(
            "SELECT graph, cell, metric, value, payload, path FROM cells"
            " WHERE run_id = ? ORDER BY id",
            (run_id,),
        ).fetchall()
        return [
            CellRecord(
                graph=row[0],
                cell=row[1],
                metric=row[2],
                value=row[3],
                payload=json.loads(row[4]),
                path=tuple(json.loads(row[5])),
            )
            for row in rows
        ]

    def numeric_cells(self, run_id: int) -> dict[tuple[str, str, str], float]:
        """Mapping of ``(graph, cell, metric)`` to numeric value for one run."""
        return {
            record.key: record.value
            for record in self.cells(run_id)
            if record.value is not None
        }

    def export_run(self, run_id: int) -> dict:
        """Reconstruct the exact payload dict a run was recorded from."""
        return _unflatten(
            [(record.path, record.payload) for record in self.cells(run_id)]
        )
