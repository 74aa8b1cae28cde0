"""Durable storage of the SCAN index as a columnar artifact.

The build-once/serve-many separation of the paper only pays off if the index
survives the process that built it.  This package flattens a
:class:`~repro.core.index.ScanIndex` into named numpy columns
(:class:`~repro.storage.artifact.IndexArtifact`), persists them as one raw
column file laid out by a JSON header, and memory-maps them back on load
-- the single construction seam behind ``ScanIndex.save`` / ``ScanIndex.load``
and the CLI's ``index build`` / ``index query`` workflow.

Because that one artifact is also the thing every later session depends on,
persistence is crash-safe and verifiable (:mod:`repro.storage.integrity`):
saves commit through an fsynced rename protocol that can only ever leave the
old-valid or new-valid artifact, headers carry per-column CRC-32 checksums,
``verify_artifact`` proves a directory consistent (``repro index verify``),
and a load that finds the target missing mid-commit rolls back from the
parked backup with a lineage check.
"""

from .artifact import IndexArtifact, load_index, save_index
from .format import FORMAT_NAME, FORMAT_VERSION, ArtifactFormatError
from .integrity import (
    ArtifactIntegrityError,
    VerifyReport,
    clean_stale_scratch,
    recover_artifact,
    verify_artifact,
)

__all__ = [
    "IndexArtifact",
    "load_index",
    "save_index",
    "FORMAT_NAME",
    "FORMAT_VERSION",
    "ArtifactFormatError",
    "ArtifactIntegrityError",
    "VerifyReport",
    "clean_stale_scratch",
    "recover_artifact",
    "verify_artifact",
]
