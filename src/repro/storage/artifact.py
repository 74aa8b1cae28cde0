"""The columnar index artifact: a durable, loadable form of :class:`ScanIndex`.

The whole point of the paper's index-based design is that one expensive build
amortises over many cheap ``(μ, ε)`` queries -- but an index that lives only
as in-process dataclasses amortises over one process at most.
:class:`IndexArtifact` flattens everything a query path needs (the graph's
CSR arrays and arc -> edge mapping, per-edge similarities, the neighbor order
``NO``, the core order ``CO``, the ε boundary table, and measure/backend
metadata) into a set of named numpy columns with save/load, so an index built
once can be served by any number of later processes without recomputing
similarities or sorting anything.

Typical usage goes through the :class:`~repro.core.index.ScanIndex` seam::

    index = ScanIndex.build(graph, measure="cosine")
    index.save("artifacts/orkut.scanidx")
    ...
    index = ScanIndex.load("artifacts/orkut.scanidx")   # columns memory-mapped
    clusterings = index.query_many([(5, 0.6), (5, 0.7), (8, 0.4)])

See :mod:`repro.storage.format` for the on-disk layout.  A loaded artifact
is also what the serving loop sits on: ``index.session()``
(:mod:`repro.serve`) keeps an ε-snapped result cache over exactly these
memory-mapped columns, so many serving processes can share one artifact's
pages.
"""

from __future__ import annotations

import shutil
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .. import obs
from ..core.core_order import CoreOrder
from ..core.index import ScanIndex
from ..core.neighbor_order import NeighborOrder
from ..graphs.graph import ID_DTYPE, Graph
from ..parallel.metrics import CostReport
from ..similarity.exact import EdgeSimilarities
from .format import (
    BOUNDARY_COLUMN,
    FORMAT_NAME,
    FORMAT_VERSION,
    ArtifactFormatError,
    check_column_shapes,
    derive_legacy_boundaries,
    narrow_legacy_ids,
    read_columns,
    read_header,
    validate_columns,
    write_columns,
    write_header,
)
from .integrity import (
    clean_stale_scratch,
    commit_artifact,
    fsync_scratch,
    recover_artifact,
    scratch_path,
    verify_checksums,
)

__all__ = ["IndexArtifact", "save_index", "load_index"]


@dataclass
class IndexArtifact:
    """A :class:`ScanIndex` flattened into named numpy columns plus metadata.

    Attributes
    ----------
    columns:
        Mapping from column name to a 1-D numpy array; see
        :mod:`repro.storage.format` for the exact inventory.  Loaded columns
        are read-only ``np.memmap`` views into the archive.
    meta:
        The parsed (or to-be-written) JSON header.
    """

    columns: dict[str, np.ndarray]
    meta: dict

    # ------------------------------------------------------------------
    # Conversion to and from the in-process index
    # ------------------------------------------------------------------
    @classmethod
    def from_index(cls, index: ScanIndex) -> "IndexArtifact":
        """Flatten an in-process index into its columnar form."""
        graph = index.graph
        # Id columns are ID_DTYPE in memory already, so nothing is copied.
        columns: dict[str, np.ndarray] = {
            "graph_indptr": np.ascontiguousarray(graph.indptr, dtype=np.int64),
            "graph_indices": np.ascontiguousarray(graph.indices, dtype=ID_DTYPE),
            "graph_arc_edge_ids": np.ascontiguousarray(
                graph.arc_edge_ids, dtype=ID_DTYPE
            ),
            "edge_similarities": np.ascontiguousarray(
                index.similarities.values, dtype=np.float64
            ),
            "no_neighbors": np.ascontiguousarray(
                index.neighbor_order.neighbors, dtype=ID_DTYPE
            ),
            "no_similarities": np.ascontiguousarray(
                index.neighbor_order.similarities, dtype=np.float64
            ),
            "co_indptr": np.ascontiguousarray(index.core_order.indptr, dtype=np.int64),
            "co_vertices": np.ascontiguousarray(
                index.core_order.vertices, dtype=ID_DTYPE
            ),
            "co_thresholds": np.ascontiguousarray(
                index.core_order.thresholds, dtype=np.float64
            ),
            BOUNDARY_COLUMN: np.ascontiguousarray(
                index.epsilon_boundaries, dtype=np.float64
            ),
        }
        if graph.arc_weights is not None:
            columns["graph_arc_weights"] = np.ascontiguousarray(
                graph.arc_weights, dtype=np.float64
            )
        if index.similarities.numerators is not None:
            columns["edge_numerators"] = np.ascontiguousarray(
                index.similarities.numerators, dtype=np.float64
            )
        report = index.construction_report
        meta = {
            "format": FORMAT_NAME,
            "version": FORMAT_VERSION,
            "measure": index.measure,
            "backend": index.similarities.backend,
            "num_vertices": graph.num_vertices,
            "num_edges": graph.num_edges,
            "weighted": graph.is_weighted,
            # Column dtype/length records; :meth:`save` adds each column's
            # crc32 once zipfile has computed it while writing.
            "columns": _column_specs(columns),
            "construction": {
                "label": report.label,
                "work": report.work,
                "span": report.span,
                "wall_seconds": report.wall_seconds,
            },
            # Update lineage: one record per dynamic batch applied since the
            # original build (format version 2), so a re-saved patched
            # artifact carries its mutation history.
            "updates": [dict(record) for record in index.update_lineage],
        }
        return cls(columns=columns, meta=meta)

    def to_index(self) -> ScanIndex:
        """Reassemble a queryable :class:`ScanIndex` from the columns.

        Pure reconstruction: the graph's derived structures come straight
        from the stored columns (no validation pass, no edge-id search), the
        two orders and the ε boundary table are wrapped as-is (no sorting),
        and no similarity is ever recomputed.  The construction report of
        the original build is restored so benchmarks can still attribute
        the build cost.
        """
        columns = self.columns
        try:
            graph = Graph.from_index_columns(
                columns["graph_indptr"],
                columns["graph_indices"],
                columns.get("graph_arc_weights"),
                columns["graph_arc_edge_ids"],
            )
            similarities = EdgeSimilarities(
                graph,
                columns["edge_similarities"],
                self.meta["measure"],
                self.meta.get("backend", ""),
                numerators=self.columns.get("edge_numerators"),
            )
        except ValueError as error:
            # Column bytes no checksum pass vouched for: CSR offsets that
            # decrease, or arcs that do not pair up into the declared edges.
            raise ArtifactFormatError(
                f"columns do not form a consistent graph ({error})"
            ) from error
        neighbor_order = NeighborOrder(
            indptr=graph.indptr,
            neighbors=columns["no_neighbors"],
            similarities=columns["no_similarities"],
        )
        core_order = CoreOrder(
            indptr=columns["co_indptr"],
            vertices=columns["co_vertices"],
            thresholds=columns["co_thresholds"],
        )
        construction = self.meta.get("construction", {})
        report = CostReport(
            label=construction.get("label", f"index-construction[{self.meta['measure']}]"),
            work=float(construction.get("work", 0.0)),
            span=float(construction.get("span", 0.0)),
            wall_seconds=float(construction.get("wall_seconds", 0.0)),
            details={"loaded": True},
        )
        return ScanIndex(
            graph=graph,
            similarities=similarities,
            neighbor_order=neighbor_order,
            core_order=core_order,
            epsilon_boundaries=columns[BOUNDARY_COLUMN],
            construction_report=report,
            # Version-1 artifacts predate lineage and load as lineage-free.
            update_lineage=[dict(record) for record in self.meta.get("updates", [])],
        )

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(self, path: str | Path) -> Path:
        """Write the artifact directory (``header.json`` + ``columns.npz``).

        Crash-safe: both files land in a scratch sibling which is fsynced
        to stable storage *before* any rename, then swapped in through the
        backup-and-rename commit of :func:`repro.storage.integrity.
        commit_artifact`.  A save that dies at any instant -- mid-archive,
        between the renames, before cleanup -- leaves the target as either
        the complete old artifact, the complete new one, or (in the
        narrow between-renames window) the old artifact parked under a
        backup name from which the next load rolls back.  Never a torn mix,
        and never a directory mixing new columns with a stale header (which
        would pass validation and silently serve wrong scores).  Leftover
        scratch directories of dead writers are swept on entry.
        """
        directory = Path(path)
        directory.parent.mkdir(parents=True, exist_ok=True)
        started = time.perf_counter()
        with obs.span(
            "storage.save", columns=len(self.columns), bytes=self.nbytes()
        ):
            clean_stale_scratch(directory)
            scratch = scratch_path(directory)
            scratch.mkdir()
            try:
                checksums = write_columns(scratch, self.columns)
                # The header describes exactly what was written: the current
                # format, and each column's member CRC (format version 4).
                self.meta.update(
                    version=FORMAT_VERSION,
                    columns=_column_specs(self.columns, checksums),
                )
                write_header(scratch, self.meta)
                fsync_scratch(scratch)
                commit_artifact(scratch, directory)
            except Exception:
                # Ordinary failures (disk full, permission) tidy their
                # staging; simulated crashes are BaseExceptions and leave the
                # torn state on disk exactly as a real death would.
                shutil.rmtree(scratch, ignore_errors=True)
                raise
        obs.histogram("storage.save_seconds").observe(time.perf_counter() - started)
        return directory

    @classmethod
    def load(
        cls,
        path: str | Path,
        *,
        mmap_mode: str | None = "r",
        verify: bool = False,
    ) -> "IndexArtifact":
        """Read an artifact directory, memory-mapping columns by default.

        Every load runs the fast integrity check: header parse, per-column
        dtype/length cross-check, and graph-shape consistency.
        ``verify=True`` additionally compares every column's CRC-32 against
        the header (the deep check; reads every byte).  A target directory
        missing because a previous writer died between its commit renames
        is first recovered from its parked backup
        (:func:`repro.storage.integrity.recover_artifact`), so an
        interrupted in-place ``repro update`` can never strand its readers.

        The int64 id columns of a version 1-3 artifact are narrowed to
        int32 after any checksum pass, and a version 1-4 artifact gets its
        ε boundary table derived (the documented legacy paths), so
        ``columns`` always holds the in-memory columns while ``meta`` still
        describes the stored ones.  Traced runs record one ``storage.load``
        span with the ``bytes`` read.

        Raises :class:`~repro.storage.format.ArtifactFormatError` when the
        directory is not an artifact, the header is corrupt, the format
        version does not match, or the stored columns disagree with the
        header's dtype/length records -- and its subclass
        :class:`~repro.storage.integrity.ArtifactIntegrityError` when
        stored bytes fail their checksums or recovery is unsafe.
        """
        with _load_span(verify) as span:
            artifact = cls._read(path, mmap_mode=mmap_mode, verify=verify)
            span.attrs["bytes"] = artifact.nbytes()
        return artifact

    @classmethod
    def _read(
        cls, path: str | Path, *, mmap_mode: str | None, verify: bool
    ) -> "IndexArtifact":
        """:meth:`load` without its span (shared with :func:`load_index`)."""
        directory = Path(path)
        if not directory.exists():
            recover_artifact(directory)
        header = read_header(directory)
        columns = read_columns(directory, mmap_mode=mmap_mode)
        validate_columns(header, columns)
        check_column_shapes(header, columns, directory)
        if verify:
            verify_checksums(header, columns, directory)
        narrow_legacy_ids(header, columns)
        derive_legacy_boundaries(header, columns)
        return cls(columns=columns, meta=header)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        """Number of vertices of the stored graph."""
        return int(self.meta["num_vertices"])

    @property
    def num_edges(self) -> int:
        """Number of undirected edges of the stored graph."""
        return int(self.meta["num_edges"])

    @property
    def measure(self) -> str:
        """Similarity measure the stored index was built with."""
        return str(self.meta["measure"])

    def nbytes(self) -> int:
        """Total payload size of the columns in bytes."""
        return int(sum(column.nbytes for column in self.columns.values()))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"IndexArtifact(n={self.num_vertices}, m={self.num_edges}, "
            f"measure={self.measure!r}, {len(self.columns)} columns, "
            f"{self.nbytes() / 1e6:.1f} MB)"
        )


def _column_specs(
    columns: dict[str, np.ndarray], checksums: dict[str, str] | None = None
) -> dict[str, dict]:
    """The header's per-column records: dtype, length and (once saved) crc32."""
    specs = {
        name: {"dtype": str(column.dtype), "length": int(column.shape[0])}
        for name, column in columns.items()
    }
    for name, crc in (checksums or {}).items():
        specs[name]["crc32"] = crc
    return specs


@contextmanager
def _load_span(verify: bool):
    """The one ``storage.load`` span of a load, plus its latency histogram."""
    started = time.perf_counter()
    with obs.span("storage.load", verify=verify) as span:
        yield span
    obs.histogram("storage.load_seconds").observe(time.perf_counter() - started)


def save_index(index: ScanIndex, path: str | Path) -> Path:
    """Flatten ``index`` and write it to ``path`` (see :class:`IndexArtifact`)."""
    return IndexArtifact.from_index(index).save(path)


def load_index(
    path: str | Path, *, mmap_mode: str | None = "r", verify: bool = False
) -> ScanIndex:
    """Load an artifact from ``path`` and reassemble the queryable index.

    One ``storage.load`` span covers the read, any verification and the
    reassembly, so it times what the caller waits for.
    """
    with _load_span(verify) as span:
        artifact = IndexArtifact._read(path, mmap_mode=mmap_mode, verify=verify)
        span.attrs["bytes"] = artifact.nbytes()
        return artifact.to_index()
