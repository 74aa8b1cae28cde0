"""On-disk format of the columnar SCAN index artifact.

An index artifact is a directory with exactly two entries:

``header.json``
    A small JSON document describing the payload.  Fields:

    * ``format`` -- the literal string ``"repro-scan-index"``;
    * ``version`` -- integer format version (:data:`FORMAT_VERSION`);
      readers accept any version in :data:`SUPPORTED_VERSIONS` and reject
      everything else.  Version 2 added the ``updates`` lineage field;
      version-1 artifacts load as lineage-free.  Version 3 added per-column
      ``crc32`` checksums of the column payload; version-2 artifacts load
      but deep verification has nothing recorded to check.  Version 4
      stores the id columns as ``int32`` and records, per column, the
      CRC-32 of the whole zip member (``.npy`` header plus payload) -- the
      CRC zipfile computes while writing, so a save checksums each byte
      once.  The ``int64`` id columns of versions 1-3 are narrowed to
      ``int32`` once at load (:func:`narrow_legacy_ids`), so the rest of the
      program sees one dtype.  Version 5 adds the ``epsilon_boundaries``
      column; versions 1-4 derive it once at load
      (:func:`derive_legacy_boundaries`);
    * ``measure`` / ``backend`` -- similarity measure and engine the index
      was built with (``backend`` is ``"lsh"`` for approximate indexes);
    * ``num_vertices`` / ``num_edges`` / ``weighted`` -- graph shape;
    * ``columns`` -- mapping from column name to ``{"dtype", "length",
      "crc32"}``; dtype/length are validated against the loaded arrays on
      every load, the CRC-32 on demand
      (:func:`repro.storage.integrity.verify_artifact` with ``deep=True``,
      or ``repro index verify --deep``).  From version 3 on every column
      must carry a ``crc32`` of eight hex digits;
    * ``construction`` -- the work/span/wall-clock record of the original
      construction (``label``, ``work``, ``span``, ``wall_seconds``);
    * ``updates`` (version ≥ 2, optional) -- the update lineage: one record
      per dynamic batch applied since the original build (``insertions``,
      ``deletions``, ``cancelled``, ``affected_edges``,
      ``affected_vertices``), in application order.  An artifact re-saved
      after ``repro update`` carries its full mutation history, staged and
      swapped in atomically like any other save.

``columns.npz``
    An *uncompressed* ``np.savez`` archive holding one named numpy column per
    index component.  With ``n`` vertices, ``m`` edges and ``max_mu`` the
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
                                                        version ≥ 2, exact
                                                        indexes only -- feeds
                                                        the dynamic updates)
    ``no_neighbors``            int32      ``2m``       neighbor order ``NO``
                                                        (offsets = graph_indptr)
    ``no_similarities``         float64    ``2m``       similarities along NO
    ``co_indptr``               int64      ``max_mu+2`` core order offsets by μ
    ``co_vertices``             int32      ``2m``       core order ``CO`` entries
    ``co_thresholds``           float64    ``2m``       core thresholds along CO
    ``epsilon_boundaries``      float64    ``d <= m``   sorted distinct edge
                                                        similarities: the ε
                                                        boundary table
                                                        (version ≥ 5)
    ==========================  =========  ===========  =========================

The four id columns (:data:`ID_COLUMNS`) are ``int64`` in versions 1-3.

``epsilon_boundaries`` holds every value a query compares ε against (each
core threshold is a neighbor-order similarity, and those are the edge
similarities), ranked once at build.  The serving ε-snapper wraps it as-is,
so an open or a reload sorts nothing.  Every load rejects a table that is not
strictly increasing and finite, or longer than ``m``; ``verify --deep``
additionally proves it equals ``np.unique(no_similarities)``.

Because the archive members are stored uncompressed, :func:`read_columns`
can memory-map each column straight out of the zip file (``mmap_mode="r"``
by default): loading an artifact touches no column data until a query reads
it, beyond an O(n) check of the CSR offsets, which is what makes one saved build cheap to share across many serving
processes.  Everything a query needs -- the sorted orders, the similarity
scores, the arc -> edge mapping -- is stored explicitly, so reconstruction
performs no similarity computation and no sorting of any kind -- the serving
ε-snapper included, since it wraps the stored boundary table (the "mmap
zero-recompute load" invariant; see ``docs/ARCHITECTURE.md``).
Readers must reject anything they cannot prove consistent -- wrong format
name or version, header/column disagreement, truncated archives -- by
raising :class:`ArtifactFormatError`, which the CLI surfaces as a clean
operator error rather than a traceback.  Durability of the files themselves
-- checksums, the fsynced rename commit, crash recovery -- lives in
:mod:`repro.storage.integrity`; the writers here expose the byte-level
fault points (``storage.columns.write``, ``storage.header.write``) that the
crash tests tear mid-write.
"""

from __future__ import annotations

import io
import json
import re
import struct
import tokenize
import zipfile
import zlib
from pathlib import Path

import numpy as np

from ..graphs.graph import ID_DTYPE, MAX_IDS
from ..testing.faults import fault_point

#: Magic string identifying the artifact format.
FORMAT_NAME = "repro-scan-index"
#: Format version written by this build (2 added the update lineage,
#: 3 the per-column crc32 checksums, 4 int32 ids and member checksums,
#: 5 the ε boundary table).
FORMAT_VERSION = 5
#: Versions this build can read; version 1 lacks the ``updates`` field and
#: loads as a lineage-free artifact, version 2 lacks column checksums and
#: loads as deep-unverifiable, versions 1-3 store int64 ids that load
#: narrowed, versions 1-4 derive the boundary table at load -- everything
#: else is identical.
SUPPORTED_VERSIONS = (1, 2, 3, 4, 5)
#: First version whose headers must record a crc32 for every column.
CHECKSUM_VERSION = 3
#: First version storing int32 ids and whole-member checksums.
MEMBER_CRC_VERSION = 4
#: First version storing the ε boundary table.
BOUNDARY_VERSION = 5
#: The ε boundary table's column: required from :data:`BOUNDARY_VERSION`.
BOUNDARY_COLUMN = "epsilon_boundaries"

#: File names inside an artifact directory.
HEADER_FILE = "header.json"
COLUMNS_FILE = "columns.npz"

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
}
#: The vertex and edge id columns: ``int32`` from version 4, ``int64`` before.
ID_COLUMNS = ("graph_indices", "graph_arc_edge_ids", "no_neighbors", "co_vertices")
#: Dtype of the id columns in version 1-3 artifacts.
LEGACY_ID_DTYPE = np.int64
#: Columns that may be absent (unweighted graphs store no weights; indexes
#: without stored numerators -- LSH estimates, version-1 artifacts -- omit
#: ``edge_numerators`` and dynamic updates fall back to a wider recompute).
OPTIONAL_COLUMNS = {
    "graph_arc_weights": np.float64,
    "edge_numerators": np.float64,
}

#: A recorded checksum: eight lowercase hex digits.
_CRC32_PATTERN = re.compile(r"[0-9a-f]{8}")
#: Bytes of a ``.npy`` magic, version and the longest header-length field.
_NPY_PREAMBLE = 12
_LOCAL_HEADER_SIGNATURE = b"PK\x03\x04"
_LOCAL_HEADER_SIZE = 30
#: General-purpose flag bit of an encrypted zip member (never written here).
_ENCRYPTED_FLAG = 0x1


class ArtifactFormatError(ValueError):
    """A stored index artifact is missing, corrupt, or of the wrong version."""


#: What the zip and ``.npy`` readers raise on arbitrary bytes: a broken zip
#: structure, an unsupported zip feature, a corrupt deflate stream, a
#: truncated member, a seek to a negative offset (``OSError``), or an
#: unparsable ``.npy`` magic or header -- numpy's header parser raises
#: ``ValueError``, or ``TokenError`` from the tokenizer it falls back to,
#: and a dtype string garbled into a bad comma list makes ``numpy.dtype``
#: raise ``SyntaxError`` -- and a member reaching past the end of the file.
_CORRUPT_ARCHIVE_ERRORS = (
    zipfile.BadZipFile,
    NotImplementedError,
    zlib.error,
    EOFError,
    OSError,
    ValueError,
    tokenize.TokenError,
    SyntaxError,
)


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
    if version not in SUPPORTED_VERSIONS:
        raise ArtifactFormatError(
            f"unsupported artifact format version {version!r}; "
            f"this build reads versions {SUPPORTED_VERSIONS} only"
        )
    for key in ("measure", "num_vertices", "num_edges", "columns"):
        if key not in header:
            raise ArtifactFormatError(f"header is missing required field {key!r}")
    updates = header.get("updates", [])
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
    if not isinstance(header["columns"], dict) or any(
        not isinstance(spec, dict)
        or not isinstance(spec.get("dtype"), str)
        or not isinstance(spec.get("length"), int)
        for spec in header["columns"].values()
    ):
        raise ArtifactFormatError(
            "header field 'columns' must map each column to its dtype and length"
        )
    recorded = set(header["columns"])
    required = set(REQUIRED_COLUMNS)
    if version >= BOUNDARY_VERSION:
        required.add(BOUNDARY_COLUMN)
    missing = required - recorded
    if missing:
        raise ArtifactFormatError(f"header is missing required columns {sorted(missing)}")
    unknown = recorded - required - set(OPTIONAL_COLUMNS)
    if unknown:
        raise ArtifactFormatError(f"header declares unknown columns {sorted(unknown)}")
    if version >= CHECKSUM_VERSION:
        for name, spec in header["columns"].items():
            crc = spec.get("crc32")
            if not isinstance(crc, str) or not _CRC32_PATTERN.fullmatch(crc):
                raise ArtifactFormatError(
                    f"column {name!r}: a version-{version} header must record its "
                    f"crc32 as eight hex digits, got {crc!r}"
                )


def _expected_dtypes(version: int) -> dict[str, type]:
    """Column name -> stored dtype for an artifact of format ``version``."""
    expected = dict(REQUIRED_COLUMNS)
    expected.update(OPTIONAL_COLUMNS)
    if version < MEMBER_CRC_VERSION:
        expected.update(dict.fromkeys(ID_COLUMNS, LEGACY_ID_DTYPE))
    if version >= BOUNDARY_VERSION:
        expected[BOUNDARY_COLUMN] = np.float64
    return expected


def validate_columns(header: dict, columns: dict[str, np.ndarray]) -> None:
    """Cross-check loaded columns against the header's dtype/length records."""
    for name, spec in header["columns"].items():
        if name not in columns:
            raise ArtifactFormatError(f"column {name!r} declared in header but not stored")
        column = columns[name]
        if column.ndim != 1:
            raise ArtifactFormatError(
                f"column {name!r}: stored shape {column.shape} is not one-dimensional"
            )
        if str(column.dtype) != spec["dtype"]:
            raise ArtifactFormatError(
                f"column {name!r}: stored dtype {column.dtype} != declared {spec['dtype']}"
            )
        if int(column.shape[0]) != int(spec["length"]):
            raise ArtifactFormatError(
                f"column {name!r}: stored length {column.shape[0]} != "
                f"declared {spec['length']}"
            )
    expected = _expected_dtypes(header["version"])
    for name, column in columns.items():
        if name not in expected:
            raise ArtifactFormatError(f"archive stores unknown column {name!r}")
        if column.dtype != expected[name]:
            raise ArtifactFormatError(
                f"column {name!r} must have dtype {np.dtype(expected[name])}, "
                f"got {column.dtype}"
            )


def check_column_shapes(
    header: dict, columns: dict[str, np.ndarray], directory: Path
) -> None:
    """Structural consistency checks tying the columns to the graph shape."""
    n = int(header["num_vertices"])
    m = int(header["num_edges"])
    checks = {
        "graph_indptr": n + 1,
        "graph_indices": 2 * m,
        "graph_arc_edge_ids": 2 * m,
        "edge_similarities": m,
        "no_neighbors": 2 * m,
        "no_similarities": 2 * m,
    }
    if "edge_numerators" in columns:
        checks["edge_numerators"] = m
    for name, expected in checks.items():
        if int(columns[name].shape[0]) != expected:
            raise ArtifactFormatError(
                f"{Path(directory) / COLUMNS_FILE}: column {name!r} has length "
                f"{columns[name].shape[0]}, expected {expected} for a graph with "
                f"{n} vertices and {m} edges"
            )
    if int(columns["graph_indptr"][-1]) != 2 * m:
        raise ArtifactFormatError(
            f"{Path(directory) / COLUMNS_FILE}: graph_indptr[-1] != 2m "
            "(corrupt CSR offsets)"
        )
    table = columns.get(BOUNDARY_COLUMN)
    if table is not None and not (
        (0 < table.shape[0] <= m or table.shape[0] == m == 0)
        and np.isfinite(table).all()
        and (np.diff(table) > 0).all()
    ):
        raise ArtifactFormatError(
            f"{Path(directory) / COLUMNS_FILE}: column {BOUNDARY_COLUMN!r} must "
            f"hold 1 to m={m} strictly increasing finite values "
            f"(got {table.shape[0]} values)"
        )


def narrow_legacy_ids(header: dict, columns: dict[str, np.ndarray]) -> None:
    """Narrow a version 1-3 artifact's int64 id columns to int32, in place.

    The documented legacy path: one copy per id column at load, after any
    checksum pass (which covers the stored int64 bytes), so the rest of the
    program sees the one in-memory id dtype.  Version-4 columns are already
    int32 and are left untouched.  An id that does not fit 32 bits can only
    come from a corrupt column and is rejected rather than wrapped.
    """
    if header["version"] >= MEMBER_CRC_VERSION:
        return
    for name in ID_COLUMNS:
        column = columns[name]
        if column.size and (column.min() < 0 or column.max() > MAX_IDS):
            raise ArtifactFormatError(
                f"column {name!r}: ids outside [0, {MAX_IDS}] cannot be loaded"
            )
        columns[name] = column.astype(ID_DTYPE)


def derive_legacy_boundaries(header: dict, columns: dict[str, np.ndarray]) -> None:
    """Give a version 1-4 artifact its ε boundary table, in place.

    The one legacy branch of the table: one ``np.unique`` over the ``m``
    stored edge similarities, which holds the same distinct values as the
    neighbor and core orders.  Version-5 columns already carry the table.
    """
    if header["version"] < BOUNDARY_VERSION:
        columns[BOUNDARY_COLUMN] = np.unique(columns["edge_similarities"])


class _CountingWriter:
    """File proxy that counts written bytes and reports them to a fault point.

    Wraps the open archive file during :func:`write_columns` so the crash
    tests can tear the write after an exact byte offset -- the stand-in for
    a process dying (or the kernel dropping power) mid-``write``.  The
    fault point fires *after* each chunk lands, so the file really holds
    the partial prefix a torn write would leave.
    """

    def __init__(self, handle, site: str):
        self._handle = handle
        self._site = site
        self.written = 0

    def write(self, data) -> int:
        count = self._handle.write(data)
        self.written += len(data)
        fault_point(self._site, bytes_written=self.written)
        return count

    def __getattr__(self, name):
        return getattr(self._handle, name)


#: File-offset alignment of every column's raw data inside ``columns.npz``.
#: ``np.savez`` places member data at whatever offset the zip bookkeeping
#: lands on, which leaves the memory-mapped columns *unaligned* -- numpy then
#: routes every access through its buffered-cast slow path and ``np.take``
#: silently copies the whole source column per call.  Aligning the data to
#: the widest vector width keeps the mmapped views on the fast paths.
COLUMN_ALIGNMENT = 64


def _aligned_npy_header(column: np.ndarray, payload_offset: int) -> bytes:
    """The ``.npy`` header of ``column``, padded so its data lands aligned.

    ``payload_offset`` is the file offset at which the ``.npy`` payload will
    begin.  The header is grown with extra space padding (legal by the
    format: the header is space-padded up to its terminating newline) so
    that ``payload_offset + header_size`` is a multiple of
    :data:`COLUMN_ALIGNMENT` -- readers that parse the header normally are
    oblivious, and :func:`_mmap_member` hands back aligned views.
    """
    buffer = io.BytesIO()
    np.lib.format.write_array_header_1_0(
        buffer, np.lib.format.header_data_from_array_1_0(column)
    )
    header = buffer.getvalue()
    # Version (1, 0): 6-byte magic, 2-byte version, little-endian uint16
    # header length, then the space-padded header ending in b"\n".
    (header_length,) = struct.unpack("<H", header[8:10])
    padding = -(payload_offset + len(header)) % COLUMN_ALIGNMENT
    return (
        header[:8] + struct.pack("<H", header_length + padding)
        + header[10:-1] + b" " * padding + b"\n"
    )


def write_columns(directory: Path, columns: dict[str, np.ndarray]) -> dict[str, str]:
    """Write the columns as an uncompressed ``.npz`` archive (mmap-friendly).

    Returns each column's member CRC-32 as eight hex digits: the checksum
    zipfile computes while it writes, read back once the archive is closed,
    so no byte is checksummed twice.

    Member data is placed at :data:`COLUMN_ALIGNMENT`-aligned file offsets
    (via ``.npy`` header padding) so the memory-mapped reads of
    :func:`read_columns` stay on numpy's aligned fast paths.  The archive is
    deterministic: fixed member timestamps, insertion-ordered members.
    Each member is the padded header followed by the column's own buffer,
    so no column is copied on the way to the file.
    """
    path = directory / COLUMNS_FILE
    members: dict[str, zipfile.ZipInfo] = {}
    with path.open("wb") as handle:
        writer = _CountingWriter(handle, "storage.columns.write")
        with zipfile.ZipFile(writer, "w", zipfile.ZIP_STORED) as archive:
            for name, column in columns.items():
                column = np.ascontiguousarray(column)
                arcname = f"{name}.npy"
                info = zipfile.ZipInfo(arcname, date_time=(1980, 1, 1, 0, 0, 0))
                info.compress_type = zipfile.ZIP_STORED
                payload_offset = (
                    handle.tell() + _LOCAL_HEADER_SIZE + len(arcname.encode("utf-8"))
                )
                header = _aligned_npy_header(column, payload_offset)
                payload = memoryview(column.reshape(-1).view(np.uint8))
                # What ``writestr`` does with one bytes object, in two writes.
                info.file_size = len(header) + payload.nbytes
                with archive.open(info, mode="w") as member:
                    member.write(header)
                    member.write(payload)
                members[name] = info
    return {name: format(info.CRC, "08x") for name, info in members.items()}


def read_member_prefixes(directory: Path) -> dict[str, bytes]:
    """The ``.npy`` header bytes that precede each column's payload.

    A version-4 checksum covers the whole member, so deep verification
    feeds these bytes, then the (memory-mapped) payload, through one CRC.
    Stored members are read in place (zipfile would check the member CRC of
    a short member as a side effect); compressed ones through zipfile.
    """
    path = Path(directory) / COLUMNS_FILE
    prefixes: dict[str, bytes] = {}
    try:
        with zipfile.ZipFile(path) as archive, path.open("rb") as handle:
            for info in archive.infolist():
                name = info.filename.removesuffix(".npy")
                if info.compress_type == zipfile.ZIP_STORED:
                    handle.seek(_payload_offset(path, handle, info))
                    prefixes[name] = _npy_prefix(handle)
                else:
                    with archive.open(info) as member:
                        prefixes[name] = _npy_prefix(member)
    except (*_CORRUPT_ARCHIVE_ERRORS, struct.error) as error:
        raise ArtifactFormatError(f"{path}: corrupt column archive ({error})") from error
    return prefixes


def _npy_prefix(stream) -> bytes:
    """Read one ``.npy`` header (magic through padding) off ``stream``."""
    start = stream.read(_NPY_PREAMBLE)
    # Magic, version, then the header length: uint16 for version 1.0,
    # uint32 for 2.0/3.0.
    if start[6:7] == b"\x01":
        size = 10 + struct.unpack("<H", start[8:10])[0]
    else:
        size = 12 + struct.unpack("<I", start[8:12])[0]
    return start + stream.read(size - len(start))


def read_columns(
    directory: Path, *, mmap_mode: str | None = "r"
) -> dict[str, np.ndarray]:
    """Load the columns of an artifact, memory-mapping them when possible.

    ``np.load`` ignores ``mmap_mode`` for ``.npz`` archives (it would have to
    decompress), but :func:`write_columns` stores members uncompressed, so
    each column's raw data sits contiguously inside the zip file at a known
    offset.  This reader parses the zip's local headers plus each member's
    ``.npy`` header and hands back ``np.memmap`` views directly into the
    archive -- no column is read into memory until something indexes it.
    Compressed members (from archives written by other tools) fall back to an
    in-memory read; ``mmap_mode=None`` forces in-memory reads for everything.
    """
    path = Path(directory) / COLUMNS_FILE
    if not path.is_file():
        raise ArtifactFormatError(f"{directory}: not an index artifact (no {COLUMNS_FILE})")
    columns: dict[str, np.ndarray] = {}
    try:
        with zipfile.ZipFile(path) as archive:
            for info in archive.infolist():
                if info.flag_bits & _ENCRYPTED_FLAG:
                    raise ArtifactFormatError(f"{path}: encrypted member {info.filename}")
                name = info.filename
                if name.endswith(".npy"):
                    name = name[: -len(".npy")]
                if mmap_mode is None or info.compress_type != zipfile.ZIP_STORED:
                    with archive.open(info) as member:
                        columns[name] = np.lib.format.read_array(member)
                    continue
                columns[name] = _mmap_member(path, info, mmap_mode)
        return columns
    except ArtifactFormatError:
        raise
    except _CORRUPT_ARCHIVE_ERRORS as error:
        raise ArtifactFormatError(f"{path}: corrupt column archive ({error})") from error


def _payload_offset(path: Path, handle, info: zipfile.ZipInfo) -> int:
    """File offset of a stored member's data, read from its local header."""
    handle.seek(info.header_offset)
    local_header = handle.read(_LOCAL_HEADER_SIZE)
    if len(local_header) != _LOCAL_HEADER_SIZE or (
        local_header[:4] != _LOCAL_HEADER_SIGNATURE
    ):
        raise ArtifactFormatError(f"{path}: corrupt local header for {info.filename}")
    name_length, extra_length = struct.unpack("<HH", local_header[26:30])
    return info.header_offset + _LOCAL_HEADER_SIZE + name_length + extra_length


def _mmap_member(path: Path, info: zipfile.ZipInfo, mmap_mode: str) -> np.ndarray:
    """Memory-map one uncompressed ``.npy`` member of a zip archive."""
    with path.open("rb") as handle:
        handle.seek(_payload_offset(path, handle, info))
        version = np.lib.format.read_magic(handle)
        if version == (1, 0):
            shape, fortran_order, dtype = np.lib.format.read_array_header_1_0(handle)
        elif version == (2, 0):
            shape, fortran_order, dtype = np.lib.format.read_array_header_2_0(handle)
        else:  # pragma: no cover - numpy only writes 1.0/2.0 headers
            raise ArtifactFormatError(
                f"{path}: unsupported .npy header version {version} in {info.filename}"
            )
        data_offset = handle.tell()
    if dtype.hasobject:  # pragma: no cover - never written by this library
        raise ArtifactFormatError(f"{path}: object-dtype column {info.filename}")
    return np.memmap(
        path,
        dtype=dtype,
        mode=mmap_mode,
        offset=data_offset,
        shape=shape,
        order="F" if fortran_order else "C",
    )
