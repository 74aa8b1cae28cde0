"""Tests for artifact durability (``repro.storage.integrity``).

Checksums, the verify report, stale-scratch detection and cleanup, and
lineage-checked recovery from a commit that died between its renames.  The
randomized crash-window sweeps live in
``tests/property/test_property_faults.py``; here each mechanism is pinned
down deterministically.
"""

import json
import os
import shutil
import zipfile

import numpy as np
import pytest

from repro import ScanIndex
from repro.graphs import from_edge_list, paper_example_graph
from repro.storage import (
    ArtifactIntegrityError,
    IndexArtifact,
    clean_stale_scratch,
    recover_artifact,
    verify_artifact,
)
from repro.storage.format import (
    COLUMNS_FILE,
    FORMAT_VERSION,
    HEADER_FILE,
    ArtifactFormatError,
    read_member_prefixes,
    validate_header,
)
from repro.storage.integrity import (
    backup_path,
    column_checksum,
    find_backups,
    find_scratch,
    is_stale,
    scratch_path,
    verify_checksums,
)

#: A pid that exists on every Linux box and is never ours: init.
LIVE_FOREIGN_PID = 1
#: A pid far above any default pid_max, hence guaranteed dead.
DEAD_PID = 2**22 + 12345


@pytest.fixture
def index():
    return ScanIndex.build(paper_example_graph(), measure="cosine")


@pytest.fixture
def saved(tmp_path, index):
    path = tmp_path / "paper.scanidx"
    index.save(path)
    return path


# ----------------------------------------------------------------------
# Checksums
# ----------------------------------------------------------------------
class TestChecksums:
    def test_checksum_is_stable_and_byte_sensitive(self):
        column = np.arange(100, dtype=np.int64)
        assert column_checksum(column) == column_checksum(column.copy())
        flipped = column.copy()
        flipped[50] ^= 1
        assert column_checksum(column) != column_checksum(flipped)

    def test_header_records_each_member_crc(self, saved):
        # Version 4: the zip member's own CRC (.npy header plus payload),
        # computed once by zipfile while writing -- from_index computes none.
        header = json.loads((saved / HEADER_FILE).read_text())
        artifact = IndexArtifact.load(saved)
        prefixes = read_member_prefixes(saved)
        with zipfile.ZipFile(saved / COLUMNS_FILE) as archive:
            members = {info.filename: info.CRC for info in archive.infolist()}
        assert set(header["columns"]) == set(artifact.columns)
        for name, spec in header["columns"].items():
            assert spec["crc32"] == format(members[f"{name}.npy"], "08x")
            assert spec["crc32"] == column_checksum(artifact.columns[name], prefixes[name])

    def test_from_index_never_checksums(self, index, monkeypatch):
        def forbidden(*args, **kwargs):  # pragma: no cover - failure path
            raise AssertionError("from_index must not checksum")

        monkeypatch.setattr("repro.storage.integrity.column_checksum", forbidden)
        monkeypatch.setattr("zlib.crc32", forbidden)
        IndexArtifact.from_index(index)

    def test_verify_checksums_counts_and_passes(self, saved):
        artifact = IndexArtifact.load(saved)
        checked = verify_checksums(artifact.meta, artifact.columns, saved)
        assert checked == len(artifact.columns)

    def test_verify_checksums_raises_on_mismatch(self, saved):
        artifact = IndexArtifact.load(saved, mmap_mode=None)
        artifact.columns["co_vertices"][0] += 1
        with pytest.raises(ArtifactIntegrityError, match="co_vertices"):
            verify_checksums(artifact.meta, artifact.columns, saved)

    def test_pre_checksum_headers_check_zero_columns(self, saved):
        artifact = IndexArtifact.load(saved)
        for spec in artifact.meta["columns"].values():
            spec.pop("crc32")
        assert verify_checksums(artifact.meta, artifact.columns, saved) == 0

    @pytest.mark.parametrize("version", [3, 4])
    @pytest.mark.parametrize("crc", [None, "12345", "not-hex!", "ABCDEF01", 305419896])
    def test_checksummed_header_must_record_every_crc(self, saved, version, crc):
        """A version-3+ header without a valid crc32 on a column is rejected.

        Without the rule, deleting one column's crc32 and flipping a byte of
        that column passed ``--deep`` ("9/10 columns verified") and served
        the corrupted scores.
        """
        header = json.loads((saved / HEADER_FILE).read_text())
        header["version"] = version
        if crc is None:
            del header["columns"]["no_similarities"]["crc32"]
        else:
            header["columns"]["no_similarities"]["crc32"] = crc
        (saved / HEADER_FILE).write_text(json.dumps(header))
        for attempt in (
            lambda: verify_artifact(saved, deep=True),
            lambda: ScanIndex.load(saved, verify=True),
        ):
            with pytest.raises(ArtifactFormatError, match="'no_similarities'.*crc32"):
                attempt()

    def test_version_two_headers_need_no_crc(self, saved):
        header = json.loads((saved / HEADER_FILE).read_text())
        header["version"] = 2
        for spec in header["columns"].values():
            del spec["crc32"]
        validate_header(header)


# ----------------------------------------------------------------------
# verify_artifact and its report
# ----------------------------------------------------------------------
class TestVerifyArtifact:
    def test_fast_report(self, saved):
        report = verify_artifact(saved)
        assert report.version == FORMAT_VERSION
        assert report.checksums_recorded == report.num_columns
        assert report.checksums_checked == 0 and not report.deep
        assert report.stale_scratch == [] and report.recovered is None
        assert any("fast mode" in line for line in report.lines())

    def test_deep_report(self, saved):
        report = verify_artifact(saved, deep=True)
        assert report.deep
        assert report.checksums_checked == report.num_columns
        assert any("verified against stored bytes" in line
                   for line in report.lines())

    def test_deep_verify_catches_flipped_byte_fast_check_misses(self, saved):
        # Flip one payload byte inside the archive: dtypes and lengths still
        # parse, so the fast check passes -- only the checksum knows.
        archive = saved / COLUMNS_FILE
        data = bytearray(archive.read_bytes())
        data[len(data) // 2] ^= 0xFF
        archive.write_bytes(data)
        verify_artifact(saved)  # fast: structure is intact
        with pytest.raises(ArtifactIntegrityError, match="checksum"):
            verify_artifact(saved, deep=True)

    def test_load_verify_flag_runs_the_deep_check(self, saved):
        archive = saved / COLUMNS_FILE
        data = bytearray(archive.read_bytes())
        data[len(data) // 2] ^= 0xFF
        archive.write_bytes(data)
        ScanIndex.load(saved)  # fast check only: loads
        with pytest.raises(ArtifactIntegrityError):
            ScanIndex.load(saved, verify=True)

    def test_report_lists_stale_scratch(self, saved):
        scratch_path(saved, pid=DEAD_PID).mkdir()
        report = verify_artifact(saved)
        assert report.stale_scratch == [f".paper.scanidx.tmp-{DEAD_PID}"]
        assert any("stale scratch" in line and "dead writers" in line
                   for line in report.lines())


# ----------------------------------------------------------------------
# Stale scratch detection and cleanup
# ----------------------------------------------------------------------
class TestStaleScratch:
    def test_dead_and_own_pid_are_stale_live_foreign_is_not(self, saved):
        dead = scratch_path(saved, pid=DEAD_PID)
        own = scratch_path(saved, pid=os.getpid())
        live = scratch_path(saved, pid=LIVE_FOREIGN_PID)
        for sibling in (dead, own, live):
            sibling.mkdir()
        assert is_stale(dead) and is_stale(own) and not is_stale(live)

    def test_clean_stale_scratch_spares_live_writers_and_backups(self, saved):
        dead = scratch_path(saved, pid=DEAD_PID)
        live = scratch_path(saved, pid=LIVE_FOREIGN_PID)
        backup = backup_path(saved, pid=DEAD_PID)
        for sibling in (dead, live, backup):
            sibling.mkdir()
        removed = clean_stale_scratch(saved)
        assert removed == [dead]
        assert not dead.exists() and live.exists() and backup.exists()

    def test_next_save_sweeps_leftover_scratch(self, saved, index):
        # The crash-recovery path operators actually hit: a writer died
        # mid-stage, its scratch lingers, the next save must not trip on it.
        dead = scratch_path(saved, pid=DEAD_PID)
        dead.mkdir()
        (dead / HEADER_FILE).write_text("{torn")
        index.save(saved)
        assert not dead.exists()
        assert find_scratch(saved) == []

    def test_completed_commit_sweeps_dead_backups_too(self, saved, index):
        stale_backup = backup_path(saved, pid=DEAD_PID)
        stale_backup.mkdir()
        index.save(saved)
        assert not stale_backup.exists()
        assert find_backups(saved) == []


# ----------------------------------------------------------------------
# Recovery from a commit that died between its renames
# ----------------------------------------------------------------------
def _park_backup(saved, pid=DEAD_PID):
    """Reproduce the pre_swap crash window: target gone, old parked."""
    backup = backup_path(saved, pid=pid)
    os.replace(saved, backup)
    return backup


class TestRecovery:
    def test_noop_when_target_exists(self, saved):
        assert recover_artifact(saved) is None

    def test_noop_when_nothing_is_parked(self, tmp_path):
        assert recover_artifact(tmp_path / "never-saved.scanidx") is None

    def test_rolls_back_parked_backup(self, saved, index):
        expected = IndexArtifact.load(saved, mmap_mode=None)
        _park_backup(saved)
        assert recover_artifact(saved) == "rolled-back"
        assert saved.is_dir() and find_backups(saved) == []
        restored = IndexArtifact.load(saved)
        for name, column in expected.columns.items():
            assert np.array_equal(column, restored.columns[name])

    def test_load_recovers_transparently(self, saved):
        _park_backup(saved)
        loaded = ScanIndex.load(saved)  # no special handling by the caller
        assert loaded.graph.num_vertices == paper_example_graph().num_vertices

    def test_unverifiable_backup_refused(self, saved):
        backup = _park_backup(saved)
        (backup / HEADER_FILE).write_text("{torn")
        with pytest.raises(ArtifactIntegrityError, match="does not verify"):
            recover_artifact(saved)
        assert backup.exists()  # refusal must not destroy the evidence

    def test_non_ancestor_backup_refused(self, saved):
        # The parked dir's lineage is NOT a prefix of the interrupted
        # scratch's lineage: whatever is parked there, it is not the state
        # the dying writer was replacing.  Rolling it back would resurrect
        # an unrelated artifact under this name.
        backup = _park_backup(saved)
        scratch = scratch_path(saved, pid=DEAD_PID)
        shutil.copytree(backup, scratch)
        header = json.loads((scratch / HEADER_FILE).read_text())
        header["updates"] = [{"batch": 0, "kind": "unrelated"}]
        backup_header = json.loads((backup / HEADER_FILE).read_text())
        backup_header["updates"] = [{"batch": 0, "kind": "other-history"}]
        (backup / HEADER_FILE).write_text(json.dumps(backup_header))
        (scratch / HEADER_FILE).write_text(json.dumps(header))
        # keep the backup loadable: lineage lives only in the header, and
        # header bytes are not checksummed column payload
        with pytest.raises(ArtifactIntegrityError, match="not the\n?.*ancestor"):
            recover_artifact(saved)
        assert backup.exists()

    def test_prefix_lineage_scratch_allows_rollback(self, saved):
        backup = _park_backup(saved)
        scratch = scratch_path(saved, pid=DEAD_PID)
        shutil.copytree(backup, scratch)
        header = json.loads((scratch / HEADER_FILE).read_text())
        header["updates"] = list(header.get("updates", [])) + [
            {"batch": 1, "kind": "insert"}
        ]
        (scratch / HEADER_FILE).write_text(json.dumps(header))
        assert recover_artifact(saved) == "rolled-back"
        assert find_scratch(saved) == []  # recovery sweeps the dead scratch

    def test_live_writer_backup_left_alone(self, saved):
        # A backup owned by a live foreign pid is a commit in flight, not a
        # death: recovery must keep its hands off.
        _park_backup(saved, pid=LIVE_FOREIGN_PID)
        assert recover_artifact(saved) is None
