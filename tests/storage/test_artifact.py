"""Tests for the columnar index artifact: round-trips and error paths."""

import json

import numpy as np
import pytest

from repro import ApproximationConfig, ArtifactFormatError, IndexArtifact, ScanIndex, obs
from repro.graphs import from_edge_list, paper_example_graph, planted_partition
from repro.storage.format import COLUMNS_FILE, FORMAT_VERSION, HEADER_FILE


def random_parameter_grid(rng, max_mu, count=20):
    """A randomized (mu, epsilon) grid with repeated epsilons."""
    mus = rng.integers(2, max_mu + 2, size=count)
    epsilons = rng.choice(np.round(np.linspace(0.05, 0.95, 10), 4), size=count)
    return [(int(mu), float(eps)) for mu, eps in zip(mus, epsilons)]


class TestRoundTrip:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_columns_byte_identical_after_round_trip(self, tmp_path, seed):
        graph = planted_partition(4, 20, p_intra=0.4, p_inter=0.03, seed=seed)
        index = ScanIndex.build(graph)
        original = IndexArtifact.from_index(index)
        original.save(tmp_path / "a")
        loaded = IndexArtifact.load(tmp_path / "a")
        assert set(loaded.columns) == set(original.columns)
        for name, column in original.columns.items():
            stored = np.asarray(loaded.columns[name])
            assert stored.dtype == column.dtype, name
            assert stored.tobytes() == column.tobytes(), name

    @pytest.mark.parametrize("seed", [3, 4])
    def test_identical_clusterings_on_random_grid(self, tmp_path, seed):
        rng = np.random.default_rng(seed)
        graph = planted_partition(5, 18, p_intra=0.45, p_inter=0.02, seed=seed)
        index = ScanIndex.build(graph)
        index.save(tmp_path / "a")
        loaded = ScanIndex.load(tmp_path / "a")
        for mu, epsilon in random_parameter_grid(rng, graph.max_degree + 1):
            ours = index.query(mu, epsilon, deterministic_borders=True)
            theirs = loaded.query(mu, epsilon, deterministic_borders=True)
            assert np.array_equal(ours.labels, theirs.labels)
            assert np.array_equal(ours.core_mask, theirs.core_mask)

    def test_weighted_graph_round_trip(self, tmp_path, weighted_graph):
        index = ScanIndex.build(weighted_graph)
        index.save(tmp_path / "w")
        loaded = ScanIndex.load(tmp_path / "w")
        assert loaded.graph.is_weighted
        assert np.allclose(loaded.graph.arc_weights, weighted_graph.arc_weights)
        a = index.query(2, 0.3, deterministic_borders=True)
        b = loaded.query(2, 0.3, deterministic_borders=True)
        assert np.array_equal(a.labels, b.labels)

    def test_approximate_index_round_trip(self, tmp_path, community_graph):
        index = ScanIndex.build(
            community_graph,
            approximate=ApproximationConfig(num_samples=32, degree_threshold=4),
        )
        index.save(tmp_path / "approx")
        loaded = ScanIndex.load(tmp_path / "approx")
        assert loaded.measure == "approx_cosine"
        assert loaded.similarities.backend == "lsh"
        a = index.query(3, 0.5, deterministic_borders=True)
        b = loaded.query(3, 0.5, deterministic_borders=True)
        assert np.array_equal(a.labels, b.labels)

    def test_metadata_preserved(self, tmp_path, paper_graph):
        index = ScanIndex.build(paper_graph, measure="jaccard", backend="hash")
        index.save(tmp_path / "meta")
        loaded = ScanIndex.load(tmp_path / "meta")
        assert loaded.measure == "jaccard"
        assert loaded.similarities.backend == "hash"
        assert loaded.construction_report.work == index.construction_report.work
        assert loaded.construction_report.span == index.construction_report.span

    def test_columns_are_memory_mapped(self, tmp_path, paper_graph):
        ScanIndex.build(paper_graph).save(tmp_path / "m")
        loaded = ScanIndex.load(tmp_path / "m")
        assert isinstance(loaded.neighbor_order.neighbors, np.memmap)
        assert isinstance(loaded.core_order.thresholds, np.memmap)

    def test_memmapped_columns_are_aligned(self, tmp_path, paper_graph):
        """Every mmapped column sits on the writer's alignment boundary.

        The zip layout would otherwise put npy payloads at arbitrary file
        offsets, and unaligned memmaps push every gather a query makes onto
        numpy's buffered slow path.
        """
        from repro.storage.format import COLUMN_ALIGNMENT

        ScanIndex.build(paper_graph).save(tmp_path / "al")
        loaded = ScanIndex.load(tmp_path / "al")
        for column in (
            loaded.neighbor_order.neighbors,
            loaded.neighbor_order.similarities,
            loaded.neighbor_order.indptr,
            loaded.core_order.thresholds,
        ):
            address = column.__array_interface__["data"][0]
            assert address % COLUMN_ALIGNMENT == 0
            assert column.flags.aligned

    @pytest.mark.parametrize("weighted", [False, True])
    def test_archive_bytes_match_the_whole_member_writer(self, tmp_path, weighted):
        """The header-then-buffer member writer leaves the same bytes.

        The reference below is the writer it replaced: ``np.save`` into a
        buffer, the alignment padding spliced into the header, and one
        ``writestr`` per member.  Both archives of one index -- weighted or
        not, including an empty column -- must hash equal.
        """
        import hashlib
        import io
        import struct
        import zipfile

        from repro.storage import format as storage_format

        def reference_write_columns(directory, columns):
            path = directory / COLUMNS_FILE
            with path.open("wb") as handle, zipfile.ZipFile(
                handle, "w", zipfile.ZIP_STORED
            ) as archive:
                for name, column in columns.items():
                    arcname = f"{name}.npy"
                    info = zipfile.ZipInfo(arcname, date_time=(1980, 1, 1, 0, 0, 0))
                    info.compress_type = zipfile.ZIP_STORED
                    offset = handle.tell() + 30 + len(arcname.encode("utf-8"))
                    buffer = io.BytesIO()
                    np.lib.format.write_array(
                        buffer, np.ascontiguousarray(column), version=(1, 0),
                        allow_pickle=False,
                    )
                    raw = bytearray(buffer.getvalue())
                    (length,) = struct.unpack("<H", raw[8:10])
                    padding = -(offset + 10 + length) % storage_format.COLUMN_ALIGNMENT
                    if padding:
                        raw[8:10] = struct.pack("<H", length + padding)
                        raw[9 + length:9 + length] = b" " * padding
                    archive.writestr(info, bytes(raw))
            return path

        def write_columns(directory, columns):
            storage_format.write_columns(directory, columns)
            return directory / COLUMNS_FILE

        rng = np.random.default_rng(11)
        edges = [(int(u), int(v)) for u, v in rng.integers(0, 40, size=(120, 2)) if u != v]
        weights = rng.uniform(0.5, 2.0, size=len(edges)) if weighted else None
        index = ScanIndex.build(from_edge_list(edges, num_vertices=45, weights=weights))
        columns = IndexArtifact.from_index(index).columns
        columns["empty"] = np.zeros(0, dtype=np.int64)
        (tmp_path / "new").mkdir()
        (tmp_path / "old").mkdir()
        digests = [
            hashlib.sha256(write(tmp_path / name, columns).read_bytes()).hexdigest()
            for name, write in (("new", write_columns), ("old", reference_write_columns))
        ]
        assert digests[0] == digests[1]
        index.save(tmp_path / "saved")
        del columns["empty"]
        saved = (tmp_path / "saved" / COLUMNS_FILE).read_bytes()
        assert saved == reference_write_columns(tmp_path / "old", columns).read_bytes()

    def test_load_without_mmap(self, tmp_path, paper_graph):
        index = ScanIndex.build(paper_graph)
        index.save(tmp_path / "nm")
        loaded = ScanIndex.load(tmp_path / "nm", mmap_mode=None)
        assert not isinstance(loaded.neighbor_order.neighbors, np.memmap)
        a = loaded.query(3, 0.6)
        assert a.num_clusters == 2

    def test_empty_graph_round_trip(self, tmp_path):
        index = ScanIndex.build(from_edge_list([], num_vertices=4))
        index.save(tmp_path / "e")
        loaded = ScanIndex.load(tmp_path / "e")
        assert loaded.graph.num_vertices == 4
        assert loaded.query(2, 0.5).num_clusters == 0


class TestStorageSpans:
    @pytest.fixture
    def trace(self, tmp_path):
        obs.reset()
        path = tmp_path / "trace.jsonl"
        obs.configure(path)
        yield path
        obs.reset()

    @staticmethod
    def records(path):
        obs.finalise()
        return [json.loads(line) for line in path.read_text().splitlines()]

    @pytest.mark.parametrize("verify", [False, True])
    def test_one_load_span_per_load_covers_reassembly(
        self, tmp_path, paper_graph, trace, verify, monkeypatch
    ):
        ScanIndex.build(paper_graph).save(tmp_path / "a")
        to_index = IndexArtifact.to_index

        def marked(artifact):
            obs.event("test.to_index")
            return to_index(artifact)

        monkeypatch.setattr(IndexArtifact, "to_index", marked)
        ScanIndex.load(tmp_path / "a", verify=verify)
        records = self.records(trace)
        spans = [r for r in records if r["kind"] == "span" and r["name"] == "storage.load"]
        assert len(spans) == 1
        (span,) = spans
        assert span["attrs"]["verify"] is verify
        stored = IndexArtifact.load(tmp_path / "a")
        assert span["attrs"]["bytes"] == stored.nbytes()
        (event,) = [r for r in records if r["name"] == "test.to_index"]
        assert span["ts"] <= event["ts"] <= span["ts"] + span["dur"]

    def test_save_span_records_bytes(self, tmp_path, paper_graph, trace):
        index = ScanIndex.build(paper_graph)
        index.save(tmp_path / "a")
        (span,) = [r for r in self.records(trace) if r["name"] == "storage.save"]
        assert span["attrs"]["bytes"] == IndexArtifact.from_index(index).nbytes()


class TestNoRecomputationOnLoad:
    def test_load_path_never_computes_similarities_or_sorts(
        self, tmp_path, paper_graph, monkeypatch
    ):
        index = ScanIndex.build(paper_graph)
        index.save(tmp_path / "a")

        def forbidden(*args, **kwargs):  # pragma: no cover - failure path
            raise AssertionError("load path must not recompute this")

        monkeypatch.setattr("repro.similarity.exact.compute_similarities", forbidden)
        monkeypatch.setattr(
            "repro.core.neighbor_order.build_neighbor_order", forbidden
        )
        monkeypatch.setattr("repro.core.core_order.build_core_order", forbidden)
        monkeypatch.setattr("repro.parallel.sorting.sort_key_triples", forbidden)
        loaded = ScanIndex.load(tmp_path / "a")
        clustering = loaded.query(3, 0.6, deterministic_borders=True)
        assert clustering.num_clusters == 2
        batched = loaded.query_many([(3, 0.6), (2, 0.5)])
        assert batched[0].num_clusters == 2

    @pytest.mark.parametrize("mmap_mode", ["r", None])
    def test_load_and_serve_leave_the_edge_list_underived(
        self, tmp_path, community_graph, mmap_mode
    ):
        """A load reads the CSR offsets only; a served query needs no
        canonical edge list, so neither it nor the arc sources get built."""
        index = ScanIndex.build(community_graph)
        index.save(tmp_path / "a")
        loaded = ScanIndex.load(tmp_path / "a", mmap_mode=mmap_mode)
        served = loaded.session().serve(3, 0.5)
        assert served.num_clusters == index.query(3, 0.5).num_clusters
        assert loaded.graph.num_edges == index.graph.num_edges
        assert loaded.graph._edge_list is None
        assert loaded.graph._arc_sources is None
        # Derived on first use, equal to the built graph's.
        assert np.array_equal(loaded.graph.edge_u, index.graph.edge_u)
        assert np.array_equal(loaded.graph.edge_v, index.graph.edge_v)


class TestErrorPaths:
    @pytest.fixture
    def saved(self, tmp_path, paper_graph):
        path = tmp_path / "artifact"
        ScanIndex.build(paper_graph).save(path)
        return path

    def test_missing_directory(self, tmp_path):
        with pytest.raises(ArtifactFormatError, match="not an index artifact"):
            ScanIndex.load(tmp_path / "nope")

    def test_corrupt_header_json(self, saved):
        (saved / HEADER_FILE).write_text("{not json")
        with pytest.raises(ArtifactFormatError, match="corrupt header"):
            ScanIndex.load(saved)

    def test_version_mismatch(self, saved):
        header = json.loads((saved / HEADER_FILE).read_text())
        header["version"] = FORMAT_VERSION + 1
        (saved / HEADER_FILE).write_text(json.dumps(header))
        with pytest.raises(ArtifactFormatError, match="version"):
            ScanIndex.load(saved)

    def test_wrong_format_name(self, saved):
        header = json.loads((saved / HEADER_FILE).read_text())
        header["format"] = "something-else"
        (saved / HEADER_FILE).write_text(json.dumps(header))
        with pytest.raises(ArtifactFormatError, match="unrecognised artifact format"):
            ScanIndex.load(saved)

    @pytest.mark.parametrize("mmap_mode", ["r", None])
    def test_garbled_npy_dtype(self, saved, mmap_mode):
        # numpy.dtype rejects a dtype string garbled into a bad comma list
        # with SyntaxError, not ValueError; it must surface as a format error.
        archive = saved / COLUMNS_FILE
        data = archive.read_bytes()
        at = data.index(b"'<i8'")
        archive.write_bytes(data[:at] + b"',i8'" + data[at + 5:])
        with pytest.raises(ArtifactFormatError, match="corrupt column archive"):
            ScanIndex.load(saved, mmap_mode=mmap_mode)

    def test_missing_required_field(self, saved):
        header = json.loads((saved / HEADER_FILE).read_text())
        del header["measure"]
        (saved / HEADER_FILE).write_text(json.dumps(header))
        with pytest.raises(ArtifactFormatError, match="missing required field"):
            ScanIndex.load(saved)

    def test_missing_columns_file(self, saved):
        (saved / COLUMNS_FILE).unlink()
        with pytest.raises(ArtifactFormatError, match="not an index artifact"):
            ScanIndex.load(saved)

    def test_corrupt_columns_archive(self, saved):
        (saved / COLUMNS_FILE).write_bytes(b"garbage, not a zip")
        with pytest.raises(ArtifactFormatError, match="corrupt column archive"):
            ScanIndex.load(saved)

    def test_header_column_length_mismatch(self, saved):
        header = json.loads((saved / HEADER_FILE).read_text())
        header["columns"]["no_neighbors"]["length"] += 1
        (saved / HEADER_FILE).write_text(json.dumps(header))
        with pytest.raises(ArtifactFormatError, match="length"):
            ScanIndex.load(saved)

    def test_graph_shape_mismatch(self, saved):
        header = json.loads((saved / HEADER_FILE).read_text())
        header["num_edges"] += 1
        (saved / HEADER_FILE).write_text(json.dumps(header))
        with pytest.raises(ArtifactFormatError):
            ScanIndex.load(saved)

    @pytest.mark.parametrize("edit", [
        pytest.param(lambda p: np.concatenate([p[:1], p[1:-1][::-1], p[-1:]]),
                     id="decreasing"),
        pytest.param(lambda p: np.concatenate([p[:-1], p[-1:] - 1]), id="short-last"),
        pytest.param(lambda p: np.concatenate([p[:-1], p[-1:] + 1]), id="long-last"),
    ])
    @pytest.mark.parametrize("mmap_mode", ["r", None])
    def test_malformed_graph_indptr_rejected(self, saved, edit, mmap_mode):
        artifact = IndexArtifact.load(saved, mmap_mode=None)
        indptr = artifact.columns["graph_indptr"]
        artifact.columns["graph_indptr"] = edit(indptr).astype(indptr.dtype)
        artifact.save(saved)  # fresh checksums: only the offsets are wrong
        with pytest.raises(ArtifactFormatError):
            ScanIndex.load(saved, mmap_mode=mmap_mode)
        with pytest.raises(ArtifactFormatError):
            ScanIndex.load(saved, mmap_mode=mmap_mode, verify=True)

    def test_unknown_stored_column(self, saved):
        import io
        import zipfile

        buffer = io.BytesIO()
        np.lib.format.write_array(buffer, np.arange(3, dtype=np.int64))
        with zipfile.ZipFile(saved / COLUMNS_FILE, "a") as archive:
            archive.writestr("foreign.npy", buffer.getvalue())
        with pytest.raises(ArtifactFormatError, match="unknown column"):
            ScanIndex.load(saved)

    def test_resave_over_existing_artifact(self, saved, community_graph):
        # A later index can re-save over the same path; the swap is staged so
        # the directory is never a mix of old header and new columns.
        other = ScanIndex.build(community_graph, measure="jaccard")
        other.save(saved)
        loaded = ScanIndex.load(saved)
        assert loaded.measure == "jaccard"
        assert loaded.graph.num_vertices == community_graph.num_vertices
