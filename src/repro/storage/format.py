"""On-disk format of the columnar SCAN index artifact.

An index artifact is a directory with exactly two entries:

``header.json``
    A small JSON document describing the payload.  Fields:

    * ``format`` -- the literal string ``"repro-scan-index"``;
    * ``version`` -- integer format version; readers accept
      :data:`FORMAT_VERSION` only and reject everything else with an error
      that says to rebuild the artifact with ``repro index build``;
    * ``measure`` / ``backend`` -- similarity measure and engine the index
      was built with (``backend`` is ``"lsh"`` for approximate indexes);
    * ``num_vertices`` / ``num_edges`` / ``weighted`` -- graph shape;
    * ``columns`` -- mapping from column name to its record
      ``{"dtype", "length", "offset", "crc32"}``: the canonical dtype, the
      number of elements, the byte offset of the column's data in
      ``columns.bin``, and the CRC-32 of those ``length * itemsize`` bytes
      as eight hex digits.  Every load checks each record against the
      canonical dtype and layout and ``columns.bin`` against the exact size
      the records describe; the CRC-32 is checked on demand
      (:func:`repro.storage.integrity.verify_artifact` with ``deep=True``,
      or ``repro index verify --deep``).  The writer computes each CRC from
      the bytes it writes, so a save checksums each byte once;
    * ``construction`` -- the work/span/wall-clock record of the original
      construction (``label``, ``work``, ``span``, ``wall_seconds``);
    * ``updates`` -- the update lineage: one record
      per dynamic batch applied since the original build (``insertions``,
      ``deletions``, ``cancelled``, ``affected_edges``,
      ``affected_vertices``), in application order.  An artifact re-saved
      after ``repro update`` carries its full mutation history, staged and
      swapped in atomically like any other save.

``columns.bin``
    The raw bytes of every column, in column-name order.  Each column starts
    at the first multiple of :data:`COLUMN_ALIGNMENT` at or after the end of
    the one before it (zero bytes fill the gap; the first starts at 0), and
    the file ends where the last column ends, so the records fix every byte
    of the file.  With ``n`` vertices, ``m`` edges and ``max_mu`` the
    largest closed-neighborhood size, the columns are:

    ==========================  =========  ===========  =========================
    column                      dtype      length       contents
    ==========================  =========  ===========  =========================
    ``graph_indptr``            int64      ``n + 1``    CSR offsets
    ``graph_indices``           int32      ``2m``       CSR neighbor ids
    ``graph_arc_edge_ids``      int32      ``2m``       arc -> canonical edge id
    ``graph_arc_weights``       float64    ``2m``       per-arc weights
                                                        (weighted graphs only)
    ``edge_similarities``       float64    ``m``        per-edge similarity
    ``edge_numerators``         float64    ``m``        closed-neighborhood dot
                                                        products (optional;
                                                        exact indexes only --
                                                        feeds the dynamic
                                                        updates)
    ``no_neighbors``            int32      ``2m``       neighbor order ``NO``
                                                        (offsets = graph_indptr)
    ``no_similarities``         float64    ``2m``       similarities along NO
    ``co_indptr``               int64      ``max_mu+2`` core order offsets by μ
    ``co_vertices``             int32      ``2m``       core order ``CO`` entries
    ``co_thresholds``           float64    ``2m``       core thresholds along CO
    ``epsilon_boundaries``      float64    ``d <= m``   sorted distinct edge
                                                        similarities: the ε
                                                        boundary table
    ==========================  =========  ===========  =========================

``epsilon_boundaries`` holds every value a query compares ε against (each
core threshold is a neighbor-order similarity, and those are the edge
similarities), ranked once at build.  The serving ε-snapper wraps it as-is,
so an open or a reload sorts nothing.  Every load rejects a table that is not
strictly increasing and finite, or longer than ``m``; ``verify --deep``
additionally proves it equals ``np.unique(no_similarities)``.

:func:`read_columns` memory-maps ``columns.bin`` once (``mmap_mode="r"`` by
default) and hands back one read-only, aligned view per column: loading an
artifact touches no column data until a query reads it, beyond an O(n) check
of the CSR offsets, which is what makes one saved build cheap to share across
many serving processes.  Everything a query needs -- the sorted orders, the
similarity scores, the arc -> edge mapping -- is stored explicitly, so
reconstruction performs no similarity computation and no sorting of any kind
-- the serving ε-snapper included, since it wraps the stored boundary table
(the "mmap zero-recompute load" invariant; see ``docs/ARCHITECTURE.md``).
Readers must reject anything they cannot prove consistent -- wrong format
name or version, a column record off the canonical dtype or layout, a
truncated or extended column file -- by raising :class:`ArtifactFormatError`,
which the CLI surfaces as a clean operator error rather than a traceback.
Durability of the files themselves -- checksums, the fsynced rename commit,
crash recovery -- lives in :mod:`repro.storage.integrity`; the writers here
expose the byte-level fault points (``storage.columns.write``,
``storage.header.write``) that the crash tests tear mid-write.
"""

from __future__ import annotations

import json
import re
import zlib
from pathlib import Path

import numpy as np

from ..graphs.graph import ID_DTYPE
from ..testing.faults import fault_point

#: Magic string identifying the artifact format.
FORMAT_NAME = "repro-scan-index"
#: Format version written by this build, and the only one it reads (2 added
#: the update lineage, 3 the per-column crc32 checksums, 4 int32 ids, 5 the
#: ε boundary table, 6 the one raw column file in place of a zip archive).
#: Older artifacts are rebuilt from their edge lists rather than converted.
FORMAT_VERSION = 6
#: The ε boundary table's column.
BOUNDARY_COLUMN = "epsilon_boundaries"

#: File names inside an artifact directory.
HEADER_FILE = "header.json"
COLUMNS_FILE = "columns.bin"

#: Column name -> expected dtype; every artifact must provide all of these.
REQUIRED_COLUMNS = {
    "graph_indptr": np.int64,
    "graph_indices": ID_DTYPE,
    "graph_arc_edge_ids": ID_DTYPE,
    "edge_similarities": np.float64,
    "no_neighbors": ID_DTYPE,
    "no_similarities": np.float64,
    "co_indptr": np.int64,
    "co_vertices": ID_DTYPE,
    "co_thresholds": np.float64,
    BOUNDARY_COLUMN: np.float64,
}
#: Columns that may be absent (unweighted graphs store no weights; LSH
#: estimates store no numerators, and updates refuse an LSH index).
OPTIONAL_COLUMNS = {
    "graph_arc_weights": np.float64,
    "edge_numerators": np.float64,
}
#: Column name -> stored dtype, for every column an artifact may hold.
COLUMN_DTYPES = {**REQUIRED_COLUMNS, **OPTIONAL_COLUMNS}

#: File-offset alignment of every column's data inside ``columns.bin``.
#: Unaligned memory-mapped columns would route every access through numpy's
#: buffered-cast slow path (``np.take`` silently copies the whole source
#: column per call); aligning to the widest vector width keeps the mapped
#: views on the fast paths.
COLUMN_ALIGNMENT = 64

#: A recorded checksum: eight lowercase hex digits.
_CRC32_PATTERN = re.compile(r"[0-9a-f]{8}")


class ArtifactFormatError(ValueError):
    """A stored index artifact is missing, corrupt, or of the wrong version."""


def write_header(directory: Path, meta: dict) -> Path:
    """Write ``header.json`` for an artifact directory and return its path."""
    path = directory / HEADER_FILE
    fault_point("storage.header.write")
    path.write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")
    return path


def read_header(directory: Path) -> dict:
    """Read and validate ``header.json`` of an artifact directory."""
    path = Path(directory) / HEADER_FILE
    if not path.is_file():
        raise ArtifactFormatError(f"{directory}: not an index artifact (no {HEADER_FILE})")
    try:
        header = json.loads(path.read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ArtifactFormatError(f"{path}: corrupt header ({error})") from error
    validate_header(header)
    return header


def validate_header(header: dict) -> None:
    """Check a parsed header for format name, version, and required fields."""
    if not isinstance(header, dict):
        raise ArtifactFormatError(f"header must be a JSON object, got {type(header).__name__}")
    if header.get("format") != FORMAT_NAME:
        raise ArtifactFormatError(
            f"unrecognised artifact format {header.get('format')!r}; "
            f"expected {FORMAT_NAME!r}"
        )
    version = header.get("version")
    if type(version) is not int or version != FORMAT_VERSION:
        raise ArtifactFormatError(
            f"unsupported artifact format version {version!r}; this build reads "
            f"version {FORMAT_VERSION} only -- rebuild the artifact from its "
            "edge list with `repro index build`"
        )
    for key in ("measure", "num_vertices", "num_edges", "columns", "updates"):
        if key not in header:
            raise ArtifactFormatError(f"header is missing required field {key!r}")
    updates = header["updates"]
    if not isinstance(updates, list) or any(
        not isinstance(record, dict) for record in updates
    ):
        raise ArtifactFormatError(
            "header field 'updates' must be a list of lineage records"
        )
    for key in ("num_vertices", "num_edges"):
        if not isinstance(header[key], int) or header[key] < 0:
            raise ArtifactFormatError(
                f"header field {key!r} must be a non-negative integer"
            )
    records = header["columns"]
    if not isinstance(records, dict):
        raise ArtifactFormatError("header field 'columns' must map column names to records")
    missing = set(REQUIRED_COLUMNS) - set(records)
    if missing:
        raise ArtifactFormatError(f"header is missing required columns {sorted(missing)}")
    unknown = set(records) - set(COLUMN_DTYPES)
    if unknown:
        raise ArtifactFormatError(f"header declares unknown columns {sorted(unknown)}")
    _check_records(records)


def _check_records(records: dict) -> None:
    """Each column record must match its canonical dtype and place in the layout.

    Walks the columns in name order, as :func:`write_columns` lays them
    out, so the one offset each record may hold is known: the previous
    column's end rounded up to :data:`COLUMN_ALIGNMENT`.  That rules out
    negative, misaligned, overlapping and gapped offsets at once, and zero-
    length columns legitimately share an offset with their successor.
    """
    offset = 0
    for name in sorted(records):
        spec = records[name]
        if not isinstance(spec, dict):
            raise ArtifactFormatError(f"column {name!r}: record must be an object, got {spec!r}")
        dtype = np.dtype(COLUMN_DTYPES[name])
        if spec.get("dtype") != str(dtype):
            raise ArtifactFormatError(
                f"column {name!r}: dtype must be {dtype}, got {spec.get('dtype')!r}"
            )
        length = spec.get("length")
        if type(length) is not int or length < 0:
            raise ArtifactFormatError(
                f"column {name!r}: length must be a non-negative integer, got {length!r}"
            )
        offset += -offset % COLUMN_ALIGNMENT
        if type(spec.get("offset")) is not int or spec["offset"] != offset:
            raise ArtifactFormatError(
                f"column {name!r}: offset must be {offset}, the aligned end of "
                f"the columns before it by their lengths, got {spec.get('offset')!r}"
            )
        crc = spec.get("crc32")
        if not isinstance(crc, str) or not _CRC32_PATTERN.fullmatch(crc):
            raise ArtifactFormatError(
                f"column {name!r}: the header must record its crc32 as eight "
                f"hex digits, got {crc!r}"
            )
        offset += length * dtype.itemsize


def _check_shapes(
    header: dict, columns: dict[str, np.ndarray], directory: Path
) -> None:
    """Tie the column lengths, CSR offsets and boundary table to the graph shape."""
    n = int(header["num_vertices"])
    m = int(header["num_edges"])
    checks = {
        "graph_indptr": n + 1,
        "graph_indices": 2 * m,
        "graph_arc_edge_ids": 2 * m,
        "graph_arc_weights": 2 * m,
        "edge_similarities": m,
        "edge_numerators": m,
        "no_neighbors": 2 * m,
        "no_similarities": 2 * m,
        "co_vertices": 2 * m,
        "co_thresholds": 2 * m,
    }
    for name, expected in checks.items():
        if name in columns and int(columns[name].shape[0]) != expected:
            raise ArtifactFormatError(
                f"{Path(directory) / COLUMNS_FILE}: column {name!r} has length "
                f"{columns[name].shape[0]}, expected {expected} for a graph with "
                f"{n} vertices and {m} edges"
            )
    for name in ("graph_indptr", "co_indptr"):
        offsets = columns[name]
        if not offsets.shape[0] or int(offsets[-1]) != 2 * m:
            raise ArtifactFormatError(
                f"{Path(directory) / COLUMNS_FILE}: {name}[-1] != 2m "
                "(corrupt offsets)"
            )
    table = columns[BOUNDARY_COLUMN]
    if not (
        (0 < table.shape[0] <= m or table.shape[0] == m == 0)
        and np.isfinite(table).all()
        and (np.diff(table) > 0).all()
    ):
        raise ArtifactFormatError(
            f"{Path(directory) / COLUMNS_FILE}: column {BOUNDARY_COLUMN!r} must "
            f"hold 1 to m={m} strictly increasing finite values "
            f"(got {table.shape[0]} values)"
        )


def write_columns(directory: Path, columns: dict[str, np.ndarray]) -> dict[str, dict]:
    """Write ``columns.bin`` and return the header's record of each column.

    One pass in column-name order: each column's raw bytes land at the next
    :data:`COLUMN_ALIGNMENT`-aligned offset, written straight from its own
    buffer, and its CRC-32 is taken from that same buffer, so no column is
    copied and nothing is read back from the file.  The
    ``storage.columns.write`` fault point fires after every chunk lands,
    with the running byte count, so the crash tests can tear the file at an
    exact offset.  The layout depends on the columns alone, so two saves of
    one index write identical files.
    """
    records: dict[str, dict] = {}
    written = 0
    with (directory / COLUMNS_FILE).open("wb") as handle:
        for name in sorted(columns):
            column = np.ascontiguousarray(columns[name])
            payload = memoryview(column.reshape(-1).view(np.uint8))
            for chunk in (bytes(-written % COLUMN_ALIGNMENT), payload):
                handle.write(chunk)
                written += len(chunk)
                fault_point("storage.columns.write", bytes_written=written)
            records[name] = {
                "dtype": str(column.dtype),
                "length": int(column.shape[0]),
                "offset": written - len(payload),
                "crc32": format(zlib.crc32(payload), "08x"),
            }
    return records


def read_columns(
    directory: Path, *, mmap_mode: str | None = "r"
) -> dict[str, np.ndarray]:
    """Read an artifact's header and load the columns it describes."""
    return map_columns(directory, read_header(directory), mmap_mode=mmap_mode)


def map_columns(
    directory: Path, header: dict, *, mmap_mode: str | None = "r"
) -> dict[str, np.ndarray]:
    """Load the columns a validated ``header`` describes, memory-mapped by default.

    ``columns.bin`` must hold exactly the bytes the column records end at:
    a truncated or extended file is refused before any column is built.  The
    file is mapped once and each column is a view of its byte range --
    read-only with ``mmap_mode="r"``, and aligned, since every offset is a
    multiple of :data:`COLUMN_ALIGNMENT` -- so no column is read into memory
    until something indexes it.  ``mmap_mode=None`` reads the file into
    memory instead.  The columns are then tied to the graph shape the header
    declares (:class:`ArtifactFormatError` on any mismatch).
    """
    path = Path(directory) / COLUMNS_FILE
    if not path.is_file():
        raise ArtifactFormatError(f"{directory}: not an index artifact (no {COLUMNS_FILE})")
    spans = {}
    for name, spec in header["columns"].items():
        dtype = np.dtype(COLUMN_DTYPES[name])
        spans[name] = (spec["offset"], spec["offset"] + spec["length"] * dtype.itemsize, dtype)
    size = max(end for _, end, _ in spans.values())
    try:
        if mmap_mode is None:
            data = np.fromfile(path, dtype=np.uint8)
        elif path.stat().st_size:
            data = np.memmap(path, dtype=np.uint8, mode=mmap_mode)
        else:  # an empty file cannot be mapped
            data = np.zeros(0, dtype=np.uint8)
    except OSError as error:
        raise ArtifactFormatError(f"{path}: cannot read the columns ({error})") from error
    if data.shape[0] != size:
        raise ArtifactFormatError(
            f"{path}: holds {data.shape[0]} bytes, but the header's column records "
            f"end at byte {size} (a truncated or extended file)"
        )
    columns = {
        name: data[start:end].view(dtype) for name, (start, end, dtype) in spans.items()
    }
    _check_shapes(header, columns, directory)
    return columns
