"""Tests for update lineage, numerator persistence and older format versions."""

import json

import numpy as np
import pytest

from repro import ArtifactFormatError, ScanIndex
from repro.graphs import from_edge_list, planted_partition
from repro.storage.format import (
    FORMAT_VERSION,
    HEADER_FILE,
    ID_COLUMNS,
    SUPPORTED_VERSIONS,
    read_columns,
    write_columns,
)
from repro.storage.integrity import column_checksum, verify_artifact


def rewrite_as_legacy(path, version):
    """Rewrite a saved artifact in a version 1-3 layout.

    Those versions store the id columns as int64; version 3 records the
    CRC-32 of each column's payload, versions 1-2 no checksum at all.
    """
    columns = {name: np.array(column) for name, column in read_columns(path).items()}
    for name in ID_COLUMNS:
        columns[name] = columns[name].astype(np.int64)
    write_columns(path, columns)
    header = json.loads((path / HEADER_FILE).read_text())
    header["version"] = version
    header["columns"] = {
        name: {"dtype": str(column.dtype), "length": int(column.shape[0])}
        | ({"crc32": column_checksum(column)} if version >= 3 else {})
        for name, column in columns.items()
    }
    (path / HEADER_FILE).write_text(json.dumps(header))


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


class TestVersionCompatibility:
    def _rewrite_header(self, path, mutate):
        header = json.loads((path / HEADER_FILE).read_text())
        mutate(header)
        (path / HEADER_FILE).write_text(json.dumps(header))

    def test_version_one_artifacts_still_load(self, index, tmp_path):
        """A pre-lineage artifact (version 1, no updates/numerators) loads."""
        index.similarities.numerators = None    # what a v1 writer stored
        index.save(tmp_path / "a")
        rewrite_as_legacy(tmp_path / "a", 1)

        def downgrade(header):
            del header["updates"]
            assert "edge_numerators" not in header["columns"]

        self._rewrite_header(tmp_path / "a", downgrade)
        loaded = ScanIndex.load(tmp_path / "a")
        assert loaded.update_lineage == []
        assert loaded.similarities.numerators is None
        assert np.array_equal(
            loaded.query(2, 0.5).labels, index.query(2, 0.5).labels
        )

    @pytest.mark.parametrize("version", [1, 2, 3])
    def test_legacy_int64_ids_load_narrowed_and_answer_unchanged(
        self, index, tmp_path, version
    ):
        index.save(tmp_path / "a")
        rewrite_as_legacy(tmp_path / "a", version)
        report = verify_artifact(tmp_path / "a", deep=True)
        assert report.checksums_checked == (report.num_columns if version == 3 else 0)
        loaded = ScanIndex.load(tmp_path / "a", verify=True)
        assert loaded.graph.indices.dtype == np.int32
        assert loaded.core_order.vertices.dtype == np.int32
        for mu, epsilon in [(2, 0.3), (3, 0.5), (5, 0.7)]:
            for det in (False, True):
                assert np.array_equal(
                    loaded.query(mu, epsilon, deterministic_borders=det).labels,
                    index.query(mu, epsilon, deterministic_borders=det).labels,
                )

    def test_legacy_ids_beyond_int32_are_rejected(self, index, tmp_path):
        index.save(tmp_path / "a")
        rewrite_as_legacy(tmp_path / "a", 2)
        columns = {name: np.array(c) for name, c in read_columns(tmp_path / "a").items()}
        columns["co_vertices"][0] = 2**32 + int(columns["co_vertices"][0])
        write_columns(tmp_path / "a", columns)
        with pytest.raises(ArtifactFormatError, match="co_vertices"):
            ScanIndex.load(tmp_path / "a")

    def test_future_versions_rejected(self, index, tmp_path):
        index.save(tmp_path / "a")
        self._rewrite_header(
            tmp_path / "a", lambda h: h.update(version=max(SUPPORTED_VERSIONS) + 1)
        )
        with pytest.raises(ArtifactFormatError, match="version"):
            ScanIndex.load(tmp_path / "a")

    def test_malformed_lineage_rejected(self, index, tmp_path):
        index.save(tmp_path / "a")
        self._rewrite_header(tmp_path / "a", lambda h: h.update(updates="yes"))
        with pytest.raises(ArtifactFormatError, match="updates"):
            ScanIndex.load(tmp_path / "a")
