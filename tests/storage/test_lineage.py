"""Tests for update lineage, numerator persistence and the format version."""

import json

import numpy as np
import pytest

from repro import ArtifactFormatError, ScanIndex
from repro.cli import main
from repro.graphs import from_edge_list, planted_partition
from repro.storage.format import (
    BOUNDARY_COLUMN,
    FORMAT_VERSION,
    HEADER_FILE,
)


@pytest.fixture()
def index():
    graph = planted_partition(3, 15, p_intra=0.5, p_inter=0.04, seed=8)
    return ScanIndex.build(graph)


class TestLineageRoundTrip:
    def test_fresh_index_saves_empty_lineage(self, index, tmp_path):
        index.save(tmp_path / "a")
        header = json.loads((tmp_path / "a" / HEADER_FILE).read_text())
        assert header["version"] == FORMAT_VERSION
        assert header["updates"] == []
        assert ScanIndex.load(tmp_path / "a").update_lineage == []

    def test_lineage_survives_save_load_update_save(self, index, tmp_path):
        index.apply_updates(insertions=[(0, 44)])
        index.save(tmp_path / "a")
        loaded = ScanIndex.load(tmp_path / "a")
        assert len(loaded.update_lineage) == 1
        assert loaded.update_lineage[0]["insertions"] == 1
        loaded.apply_updates(deletions=[(0, 44)])
        loaded.save(tmp_path / "b")
        header = json.loads((tmp_path / "b" / HEADER_FILE).read_text())
        assert [r["deletions"] for r in header["updates"]] == [0, 1]

    def test_numerators_persist_and_feed_updates_after_load(self, index, tmp_path):
        index.save(tmp_path / "a")
        loaded = ScanIndex.load(tmp_path / "a")
        assert loaded.similarities.numerators is not None
        assert np.array_equal(
            np.asarray(loaded.similarities.numerators),
            np.asarray(index.similarities.numerators),
        )
        loaded.apply_updates(insertions=[(0, 44)])
        edges = list(zip(*[a.tolist() for a in index.graph.edge_list()]))
        rebuilt = ScanIndex.build(
            from_edge_list(edges + [(0, 44)], num_vertices=index.graph.num_vertices)
        )
        assert np.array_equal(
            np.asarray(loaded.similarities.numerators),
            rebuilt.similarities.numerators,
        )


#: The id columns, which format versions 1-3 stored as int64.
ID_COLUMNS = ("graph_indices", "graph_arc_edge_ids", "no_neighbors", "co_vertices")


def downgrade_header(header, version):
    """Rewrite a current header in place as an older writer would have left it.

    Versions 1-5 stored a zip archive, so their column records hold no
    offset; 1-4 had no ε boundary table, 1-3 stored int64 ids, 1-2 recorded
    no checksums, and version 1 no update lineage.
    """
    header["version"] = version
    for spec in header["columns"].values():
        del spec["offset"]
    if version <= 4:
        del header["columns"][BOUNDARY_COLUMN]
    if version <= 3:
        for name in ID_COLUMNS:
            header["columns"][name]["dtype"] = "int64"
    if version <= 2:
        for spec in header["columns"].values():
            del spec["crc32"]
    if version == 1:
        del header["updates"]


def read_tree(path):
    """Each file directly under ``path`` with its bytes."""
    return {entry.name: entry.read_bytes() for entry in sorted(path.iterdir())}


class TestVersionCompatibility:
    def _rewrite_header(self, path, mutate):
        header = json.loads((path / HEADER_FILE).read_text())
        mutate(header)
        (path / HEADER_FILE).write_text(json.dumps(header))

    @pytest.mark.parametrize("version", [1, 2, 3, 4, 5])
    def test_an_older_version_is_refused_with_one_rebuild_line(
        self, index, tmp_path, version
    ):
        """Only the current format loads; an older header names the rebuild.

        The version is checked before any field an older writer left out,
        so the error is the rebuild line, not a missing crc32 or lineage.
        """
        index.save(tmp_path / "a")
        self._rewrite_header(tmp_path / "a", lambda h: downgrade_header(h, version))
        with pytest.raises(
            ArtifactFormatError, match=f"version {version};.*repro index build"
        ):
            ScanIndex.load(tmp_path / "a")

    @pytest.mark.parametrize("surface", [
        pytest.param(["index", "verify", "{a}"], id="verify"),
        pytest.param(["index", "verify", "{a}", "--deep"], id="verify-deep"),
        pytest.param(["index", "query", "{a}", "--pairs", "2:0.5"], id="query"),
        pytest.param(["update", "{a}", "{delta}"], id="update"),
        pytest.param(["serve", "{a}", "--requests", "{requests}"], id="serve"),
        pytest.param(["cluster", "--load", "{a}", "--mu", "2"], id="cluster-load"),
    ])
    @pytest.mark.parametrize("version", [1, 2, 3, 4, 5])
    def test_every_command_refuses_an_older_version_in_one_line(
        self, index, tmp_path, capsys, version, surface
    ):
        """Each command that opens an artifact exits 2 with the rebuild line
        and leaves the artifact's bytes as they were."""
        artifact = tmp_path / "a"
        index.save(artifact)
        self._rewrite_header(artifact, lambda h: downgrade_header(h, version))
        (tmp_path / "delta.txt").write_text("+ 0 44\n")
        (tmp_path / "requests.txt").write_text("2:0.5\n")
        before = read_tree(artifact)
        argv = [
            word.format(
                a=artifact,
                delta=tmp_path / "delta.txt",
                requests=tmp_path / "requests.txt",
            )
            for word in surface
        ]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert f"version {version};" in captured.err
        assert "repro index build" in captured.err
        assert "Traceback" not in captured.err and captured.out == ""
        assert read_tree(artifact) == before

    @pytest.mark.parametrize("version", [
        pytest.param(str(FORMAT_VERSION), id="string"),
        pytest.param(float(FORMAT_VERSION), id="float"),
        pytest.param(5.5, id="fraction"),
        pytest.param(True, id="bool"),
        pytest.param(0, id="zero"),
        pytest.param(-5, id="negative"),
        pytest.param(None, id="null"),
    ])
    def test_a_version_that_is_not_a_supported_integer_is_rejected(
        self, index, tmp_path, version
    ):
        index.save(tmp_path / "a")
        self._rewrite_header(tmp_path / "a", lambda h: h.update(version=version))
        with pytest.raises(ArtifactFormatError, match="version.*repro index build"):
            ScanIndex.load(tmp_path / "a")

    def test_a_header_without_a_version_is_rejected(self, index, tmp_path):
        index.save(tmp_path / "a")
        self._rewrite_header(tmp_path / "a", lambda h: h.pop("version"))
        with pytest.raises(ArtifactFormatError, match="version None"):
            ScanIndex.load(tmp_path / "a")

    def test_future_versions_rejected(self, index, tmp_path):
        index.save(tmp_path / "a")
        self._rewrite_header(
            tmp_path / "a", lambda h: h.update(version=FORMAT_VERSION + 1)
        )
        with pytest.raises(ArtifactFormatError, match="version"):
            ScanIndex.load(tmp_path / "a")

    @pytest.mark.parametrize("mutate", [
        pytest.param(lambda h: h.update(updates="yes"), id="not-a-list"),
        pytest.param(lambda h: h.pop("updates"), id="missing"),
    ])
    def test_malformed_lineage_rejected(self, index, tmp_path, mutate):
        index.save(tmp_path / "a")
        self._rewrite_header(tmp_path / "a", mutate)
        with pytest.raises(ArtifactFormatError, match="updates"):
            ScanIndex.load(tmp_path / "a")
