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
import zlib

import numpy as np
import pytest

from repro import ScanIndex
from repro.cli import main
from repro.graphs import from_edge_list, paper_example_graph
from repro.storage import (
    ArtifactIntegrityError,
    IndexArtifact,
    clean_stale_scratch,
    recover_artifact,
    verify_artifact,
)
from repro.storage.format import (
    BOUNDARY_COLUMN,
    COLUMN_DTYPES,
    COLUMNS_FILE,
    FORMAT_VERSION,
    HEADER_FILE,
    ArtifactFormatError,
    read_columns,
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


def _flip_payload_byte(path, column="no_similarities"):
    """Flip one byte inside a column's payload, leaving the structure intact."""
    header = json.loads((path / HEADER_FILE).read_text())
    offset = header["columns"][column]["offset"] + 3
    data = bytearray((path / COLUMNS_FILE).read_bytes())
    data[offset] ^= 0xFF
    (path / COLUMNS_FILE).write_bytes(data)


@pytest.fixture
def index():
    return ScanIndex.build(paper_example_graph(), measure="cosine")


@pytest.fixture
def saved(tmp_path, index):
    path = tmp_path / "paper.scanidx"
    index.save(path)
    return path


@pytest.fixture
def weighted_saved(tmp_path, weighted_graph):
    """A weighted exact index: its artifact stores every column there is."""
    path = tmp_path / "weighted.scanidx"
    ScanIndex.build(weighted_graph).save(path)
    assert set(read_columns(path)) == set(COLUMN_DTYPES)
    return path


# ----------------------------------------------------------------------
# Checksums
# ----------------------------------------------------------------------
class TestChecksums:
    def test_checksum_is_stable_and_byte_sensitive(self):
        column = np.arange(100, dtype=np.int64)
        assert column_checksum(column) == column_checksum(column.copy())
        assert column_checksum(column) == format(zlib.crc32(column.tobytes()), "08x")
        flipped = column.copy()
        flipped[50] ^= 1
        assert column_checksum(column) != column_checksum(flipped)

    def test_header_records_each_column_crc(self, saved):
        # The CRC of the column's byte range in the file, computed by the
        # writer from the buffer it wrote -- from_index computes none.
        header = json.loads((saved / HEADER_FILE).read_text())
        artifact = IndexArtifact.load(saved)
        data = (saved / COLUMNS_FILE).read_bytes()
        assert set(header["columns"]) == set(artifact.columns)
        for name, spec in header["columns"].items():
            start = spec["offset"]
            stored = data[start:start + artifact.columns[name].nbytes]
            assert spec["crc32"] == format(zlib.crc32(stored), "08x")
            assert spec["crc32"] == column_checksum(artifact.columns[name])

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

    @pytest.mark.parametrize("column", ["no_similarities", "co_vertices", BOUNDARY_COLUMN])
    @pytest.mark.parametrize("crc", [None, "12345", "not-hex!", "ABCDEF01", 305419896])
    def test_header_must_record_every_crc(self, saved, crc, column):
        """A header without a valid crc32 on a column is rejected.

        Without the rule, deleting one column's crc32 and flipping a byte of
        that column passed ``--deep`` ("9/10 columns verified") and served
        the corrupted scores.
        """
        header = json.loads((saved / HEADER_FILE).read_text())
        if crc is None:
            del header["columns"][column]["crc32"]
        else:
            header["columns"][column]["crc32"] = crc
        (saved / HEADER_FILE).write_text(json.dumps(header))
        for attempt in (
            lambda: verify_artifact(saved, deep=True),
            lambda: ScanIndex.load(saved, verify=True),
        ):
            with pytest.raises(ArtifactFormatError, match=f"'{column}'.*crc32"):
                attempt()


# ----------------------------------------------------------------------
# verify_artifact and its report
# ----------------------------------------------------------------------
class TestVerifyArtifact:
    def test_fast_report(self, saved):
        report = verify_artifact(saved)
        assert report.version == FORMAT_VERSION
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
        # Flip one payload byte inside a column: dtypes and lengths still
        # parse, so the fast check passes -- only the checksum knows.
        _flip_payload_byte(saved)
        verify_artifact(saved)  # fast: structure is intact
        with pytest.raises(ArtifactIntegrityError, match="checksum"):
            verify_artifact(saved, deep=True)

    @pytest.mark.parametrize("column", sorted(COLUMN_DTYPES))
    def test_deep_verify_catches_a_flipped_byte_in_every_column(
        self, weighted_saved, column, capsys
    ):
        """Each column's CRC covers its bytes: no column is left unchecked."""
        _flip_payload_byte(weighted_saved, column)
        verify_artifact(weighted_saved)  # fast: dtypes and lengths still parse
        with pytest.raises(ArtifactIntegrityError, match=f"'{column}' fails its checksum"):
            verify_artifact(weighted_saved, deep=True)
        assert main(["index", "verify", str(weighted_saved), "--deep"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"'{column}'" in err and "Traceback" not in err

    def test_appended_bytes_are_refused_before_any_checksum(
        self, saved, monkeypatch, capsys
    ):
        """Bytes past the last recorded column are never loaded.

        Appending a column's worth of arc weights to an unweighted artifact
        keeps every declared column's bytes and CRC, so only the size check
        can tell; it runs before any checksum, on every load.
        """
        num_arcs = int(read_columns(saved)["graph_indices"].shape[0])
        with (saved / COLUMNS_FILE).open("ab") as handle:
            handle.write(np.full(num_arcs, 2.0).tobytes())

        def forbidden(*args, **kwargs):  # pragma: no cover - failure path
            raise AssertionError("no checksum may run before the size check")

        monkeypatch.setattr("repro.storage.integrity.column_checksum", forbidden)
        for attempt in (
            lambda: ScanIndex.load(saved, verify=True),
            lambda: ScanIndex.load(saved),
            lambda: verify_artifact(saved, deep=True),
        ):
            with pytest.raises(ArtifactFormatError, match="truncated or extended"):
                attempt()
        for argv in (
            ["index", "verify", str(saved), "--deep"],
            ["index", "query", str(saved), "--pairs", "2:0.5"],
        ):
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
            assert COLUMNS_FILE in captured.err and "Traceback" not in captured.err
            assert captured.out == ""

    def test_load_verify_flag_runs_the_deep_check(self, saved):
        _flip_payload_byte(saved)
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
# The ε boundary table
# ----------------------------------------------------------------------
def _resave_with_table(path, edit):
    """Re-save ``path`` with an edited boundary table and fresh checksums."""
    artifact = IndexArtifact.load(path, mmap_mode=None)
    artifact.columns[BOUNDARY_COLUMN] = edit(artifact.columns[BOUNDARY_COLUMN])
    artifact.save(path)


class TestBoundaryTable:
    def test_saved_table_is_the_distinct_edge_similarities(self, saved, index):
        stored = read_columns(saved)[BOUNDARY_COLUMN]
        assert stored.tobytes() == np.unique(index.similarities.values).tobytes()
        assert ScanIndex.load(saved).epsilon_boundaries.tobytes() == stored.tobytes()

    @pytest.mark.parametrize("edit", [
        pytest.param(lambda t: np.delete(t, t.shape[0] // 2), id="missing"),
        pytest.param(lambda t: np.insert(t, 1, (t[0] + t[1]) / 2), id="extra"),
    ])
    def test_deep_verify_catches_a_table_only_semantics_can(self, saved, edit, capsys):
        _resave_with_table(saved, edit)
        verify_artifact(saved)  # fast: still strictly increasing and finite
        ScanIndex.load(saved, verify=True)  # every checksum matches
        with pytest.raises(ArtifactIntegrityError, match=BOUNDARY_COLUMN):
            verify_artifact(saved, deep=True)
        assert main(["index", "verify", str(saved), "--deep"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert BOUNDARY_COLUMN in err and "Traceback" not in err

    @pytest.mark.parametrize("edit", [
        pytest.param(lambda t: t[::-1].copy(), id="decreasing"),
        pytest.param(lambda t: np.insert(t, 1, t[0]), id="repeated"),
        pytest.param(lambda t: np.append(t, np.nan), id="nan"),
        pytest.param(lambda t: np.append(t, np.inf), id="infinite"),
        pytest.param(lambda t: t[:0], id="empty"),
    ])
    def test_every_load_rejects_a_malformed_table(self, saved, edit):
        _resave_with_table(saved, edit)
        for attempt in (lambda: ScanIndex.load(saved), lambda: verify_artifact(saved)):
            with pytest.raises(ArtifactFormatError, match=BOUNDARY_COLUMN):
                attempt()

    def test_a_table_longer_than_the_edge_count_is_rejected(self, saved, index):
        m = index.graph.num_edges
        _resave_with_table(saved, lambda t: np.linspace(0.0, 1.0, m + 1))
        with pytest.raises(ArtifactFormatError, match=BOUNDARY_COLUMN):
            ScanIndex.load(saved)


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
# What a save may replace
# ----------------------------------------------------------------------
EDGES = "0 1\n0 2\n1 2\n2 3\n3 4\n3 5\n4 5\n"


def _snapshot(root):
    """Every path under ``root`` (itself included) with its file bytes."""
    return {
        str(path.relative_to(root.parent)): path.read_bytes() if path.is_file() else None
        for path in [root, *sorted(root.rglob("*"))]
    }


class TestSaveTarget:
    def _refused(self, argv, target, capsys):
        before = _snapshot(target.parent)
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "refusing to save" in err and "Traceback" not in err
        # Untouched, and no scratch or backup sibling left behind.
        assert _snapshot(target.parent) == before

    def test_a_directory_of_other_files_is_refused(self, tmp_path, capsys):
        (tmp_path / "edges.txt").write_text(EDGES)
        precious = tmp_path / "precious"
        precious.mkdir()
        (precious / "notes.txt").write_text("keep me\n")
        argv = ["index", "build", str(tmp_path / "edges.txt"), str(precious)]
        self._refused(argv, precious, capsys)

    def test_the_edge_list_itself_is_refused(self, tmp_path, capsys):
        edges = tmp_path / "g.txt"
        edges.write_text(EDGES)
        self._refused(["index", "build", str(edges), str(edges)], edges, capsys)

    @pytest.mark.parametrize("command", [
        pytest.param(["cluster", "{edges}", "--mu", "2", "--save", "{target}"],
                     id="cluster-save"),
        pytest.param(["update", "{artifact}", "{delta}", "--output", "{target}"],
                     id="update-output"),
    ])
    def test_every_saving_command_refuses_a_directory_of_other_files(
        self, tmp_path, capsys, index, command
    ):
        (tmp_path / "edges.txt").write_text(EDGES)
        (tmp_path / "delta.txt").write_text("+ 0 5\n")
        index.save(tmp_path / "artifact")
        precious = tmp_path / "precious"
        precious.mkdir()
        (precious / "notes.txt").write_text("keep me\n")
        argv = [
            word.format(
                edges=tmp_path / "edges.txt",
                artifact=tmp_path / "artifact",
                delta=tmp_path / "delta.txt",
                target=precious,
            )
            for word in command
        ]
        self._refused(argv, precious, capsys)

    @pytest.mark.parametrize("make_target", [
        pytest.param(lambda t: (t.mkdir(), (t / "notes.txt").write_text("keep me\n")),
                     id="directory-of-files"),
        pytest.param(lambda t: (t.mkdir(), (t / "sub").mkdir()),
                     id="directory-of-a-directory"),
        pytest.param(lambda t: (t.mkdir(), (t / ".hidden").write_text("x\n")),
                     id="directory-of-a-dotfile"),
        pytest.param(lambda t: (t.mkdir(), (t / COLUMNS_FILE).write_bytes(b"PK")),
                     id="columns-without-a-header"),
        pytest.param(lambda t: t.write_text(EDGES), id="plain-file"),
        pytest.param(lambda t: t.symlink_to(t.parent / "nowhere"), id="dangling-link"),
    ])
    def test_the_api_refuses_before_writing_anything(self, tmp_path, index, make_target):
        target = tmp_path / "target"
        make_target(target)
        before = _snapshot(tmp_path)
        with pytest.raises(ArtifactFormatError, match="refusing to save"):
            index.save(target)
        assert _snapshot(tmp_path) == before

    def test_an_empty_directory_and_an_artifact_still_save(self, tmp_path, index):
        empty = tmp_path / "empty"
        empty.mkdir()
        index.save(empty)
        assert (empty / HEADER_FILE).is_file()
        (tmp_path / "delta.txt").write_text("+ 0 5\n")
        assert main(["update", str(empty), str(tmp_path / "delta.txt")]) == 0
        assert verify_artifact(empty, deep=True).lineage_records == 1
        assert find_scratch(empty) == [] and find_backups(empty) == []


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
