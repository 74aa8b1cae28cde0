"""Old readers: a frozen version-3 artifact keeps loading and answering.

``fixtures/v3/artifact`` was written by the format-3 writer (int64 id
columns, payload CRC-32s): ``repro index build base.txt`` followed by
``repro update`` with ``delta.txt``, so its header carries one lineage
record.  ``edges.txt`` is ``base.txt`` with the delta applied -- the graph
the artifact must answer for.  It is never rewritten; tests work on copies.
"""

import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from repro import ScanIndex
from repro.cli import main
from repro.graphs import from_weighted_edge_list
from repro.graphs.io import read_edge_list
from repro.storage import ArtifactIntegrityError, IndexArtifact, verify_artifact
from repro.storage.format import (
    COLUMNS_FILE,
    FORMAT_VERSION,
    HEADER_FILE,
    ID_COLUMNS,
    read_columns,
)

FIXTURE = Path(__file__).parent / "fixtures" / "v3"
GRID = [(mu, epsilon) for mu in (2, 3, 4, 6) for epsilon in (0.2, 0.4, 0.5, 0.6, 0.8)]


@pytest.fixture
def copy(tmp_path):
    target = tmp_path / "v3.scanidx"
    shutil.copytree(FIXTURE / "artifact", target)
    return target


@pytest.fixture(scope="module")
def fresh():
    return ScanIndex.build(read_edge_list(FIXTURE / "edges.txt"))


def test_fixture_is_a_version_3_artifact_with_int64_ids():
    header = json.loads((FIXTURE / "artifact" / HEADER_FILE).read_text())
    assert header["version"] == 3
    assert len(header["updates"]) == 1
    assert all(header["columns"][name]["dtype"] == "int64" for name in ID_COLUMNS)


def test_loads_and_deep_verifies():
    report = verify_artifact(FIXTURE / "artifact", deep=True)
    assert report.version == 3
    assert report.checksums_checked == report.num_columns == 11


def test_ids_are_narrowed_once_at_load():
    loaded = ScanIndex.load(FIXTURE / "artifact", verify=True)
    for column in (
        loaded.graph.indices, loaded.graph.arc_edge_ids,
        loaded.neighbor_order.neighbors, loaded.core_order.vertices,
    ):
        assert column.dtype == np.int32


@pytest.mark.parametrize("deterministic", [False, True])
def test_answers_like_a_fresh_build(fresh, deterministic):
    loaded = ScanIndex.load(FIXTURE / "artifact")
    assert loaded.graph == fresh.graph
    for mu, epsilon in GRID:
        ours = loaded.query(mu, epsilon, deterministic_borders=deterministic)
        theirs = fresh.query(mu, epsilon, deterministic_borders=deterministic)
        assert np.array_equal(ours.labels, theirs.labels), (mu, epsilon)
        assert np.array_equal(ours.core_mask, theirs.core_mask), (mu, epsilon)
    swept = loaded.query_many(GRID, deterministic_borders=deterministic)
    for ours, (mu, epsilon) in zip(swept, GRID):
        theirs = fresh.query(mu, epsilon, deterministic_borders=deterministic)
        assert np.array_equal(ours.labels, theirs.labels), (mu, epsilon)


def test_flipped_payload_byte_fails_deep_verify(copy, capsys):
    column = read_columns(copy)["no_similarities"]
    offset = column.offset + 3
    del column
    data = bytearray((copy / COLUMNS_FILE).read_bytes())
    data[offset] ^= 0x01
    (copy / COLUMNS_FILE).write_bytes(data)
    verify_artifact(copy)  # fast: structure is intact
    with pytest.raises(ArtifactIntegrityError, match="no_similarities"):
        verify_artifact(copy, deep=True)
    assert main(["index", "verify", str(copy), "--deep"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_update_writes_version_4_and_keeps_lineage(copy, tmp_path):
    delta = tmp_path / "delta.txt"
    delta.write_text("+ 0 29 1.5\n- 0 1\n")
    old = json.loads((copy / HEADER_FILE).read_text())
    assert main(["update", str(copy), str(delta)]) == 0
    header = json.loads((copy / HEADER_FILE).read_text())
    assert header["version"] == FORMAT_VERSION
    assert header["updates"][:1] == old["updates"]
    assert len(header["updates"]) == 2
    assert all(header["columns"][name]["dtype"] == "int32" for name in ID_COLUMNS)
    assert verify_artifact(copy, deep=True).checksums_checked == 11

    edges = read_edge_list(FIXTURE / "edges.txt")
    assert edges.has_edge(0, 1) and not edges.has_edge(0, 29)
    fresh_edges = [
        (u, v, w) for (u, v), w in zip(edges.edges(), edges.edge_weights.tolist())
        if (u, v) != (0, 1)
    ] + [(0, 29, 1.5)]
    rebuilt = ScanIndex.build(from_weighted_edge_list(fresh_edges, num_vertices=30))
    patched = IndexArtifact.load(copy).columns
    expected = IndexArtifact.from_index(rebuilt).columns
    assert set(patched) == set(expected)
    for name, column in expected.items():
        assert patched[name].dtype == column.dtype, name
        if name in ("edge_similarities", "no_similarities", "co_thresholds",
                    "edge_numerators"):
            # Weighted cosine: equal up to float summation order.
            np.testing.assert_allclose(patched[name], column, rtol=1e-12)
        else:
            assert np.array_equal(patched[name], column), name
