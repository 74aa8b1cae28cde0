"""Tests for the columnar index artifact: round-trips and error paths."""

import json

import numpy as np
import pytest

from repro import ApproximationConfig, ArtifactFormatError, IndexArtifact, ScanIndex, obs
from repro.graphs import from_edge_list, paper_example_graph, planted_partition
from repro.storage.format import COLUMN_ALIGNMENT, COLUMNS_FILE, FORMAT_VERSION, HEADER_FILE


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
            ours = index.query(mu, epsilon)
            theirs = loaded.query(mu, epsilon)
            assert np.array_equal(ours.labels, theirs.labels)
            assert np.array_equal(ours.core_mask, theirs.core_mask)

    def test_weighted_graph_round_trip(self, tmp_path, weighted_graph):
        index = ScanIndex.build(weighted_graph)
        index.save(tmp_path / "w")
        loaded = ScanIndex.load(tmp_path / "w")
        assert loaded.graph.is_weighted
        assert np.allclose(loaded.graph.arc_weights, weighted_graph.arc_weights)
        a = index.query(2, 0.3)
        b = loaded.query(2, 0.3)
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
        a = index.query(3, 0.5)
        b = loaded.query(3, 0.5)
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

        Packed end to end, the columns would start at arbitrary file
        offsets, and unaligned memmaps push every gather a query makes onto
        numpy's buffered slow path.
        """
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
    def test_column_file_is_the_columns_at_their_recorded_offsets(
        self, tmp_path, weighted
    ):
        """``columns.bin`` is each column's raw bytes at its recorded offset,
        zero bytes between, and nothing after the last column."""
        rng = np.random.default_rng(11)
        edges = [(int(u), int(v)) for u, v in rng.integers(0, 40, size=(120, 2)) if u != v]
        weights = rng.uniform(0.5, 2.0, size=len(edges)) if weighted else None
        index = ScanIndex.build(from_edge_list(edges, num_vertices=45, weights=weights))
        columns = IndexArtifact.from_index(index).columns
        index.save(tmp_path / "a")
        records = json.loads((tmp_path / "a" / HEADER_FILE).read_text())["columns"]
        expected = bytearray()
        for name in sorted(columns):
            expected += bytes(-len(expected) % COLUMN_ALIGNMENT)
            assert records[name]["offset"] == len(expected), name
            expected += columns[name].tobytes()
        assert (tmp_path / "a" / COLUMNS_FILE).read_bytes() == bytes(expected)

    @pytest.mark.parametrize("weighted", [False, True])
    def test_two_saves_write_identical_column_files(self, tmp_path, weighted, request):
        graph = request.getfixturevalue("weighted_graph" if weighted else "community_graph")
        index = ScanIndex.build(graph)
        index.save(tmp_path / "a")
        index.save(tmp_path / "b")
        ScanIndex.load(tmp_path / "a").save(tmp_path / "c")
        first = (tmp_path / "a" / COLUMNS_FILE).read_bytes()
        assert (tmp_path / "b" / COLUMNS_FILE).read_bytes() == first
        assert (tmp_path / "c" / COLUMNS_FILE).read_bytes() == first

    def test_load_without_mmap(self, tmp_path, paper_graph):
        index = ScanIndex.build(paper_graph)
        index.save(tmp_path / "nm")
        loaded = ScanIndex.load(tmp_path / "nm", mmap_mode=None)
        assert not isinstance(loaded.neighbor_order.neighbors, np.memmap)
        a = loaded.query(3, 0.6)
        assert a.num_clusters == 2

    @pytest.mark.parametrize("mmap_mode", ["r", None])
    def test_empty_graph_round_trip(self, tmp_path, mmap_mode):
        """Zero-length columns share their successor's offset and still load."""
        index = ScanIndex.build(from_edge_list([], num_vertices=4))
        index.save(tmp_path / "e")
        records = json.loads((tmp_path / "e" / HEADER_FILE).read_text())["columns"]
        offsets = [records[name]["offset"] for name in sorted(records)]
        assert len(set(offsets)) < len(offsets)
        loaded = ScanIndex.load(tmp_path / "e", mmap_mode=mmap_mode, verify=True)
        assert loaded.graph.num_vertices == 4
        assert loaded.query(2, 0.5).num_clusters == 0
        stored = IndexArtifact.load(tmp_path / "e", mmap_mode=mmap_mode).columns
        for name, column in IndexArtifact.from_index(index).columns.items():
            assert stored[name].dtype == column.dtype, name
            assert stored[name].tobytes() == column.tobytes(), name


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
        clustering = loaded.query(3, 0.6)
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

    @pytest.mark.parametrize("edit", [
        pytest.param(lambda data: b"garbage", id="garbage"),
        pytest.param(lambda data: data[:-1], id="truncated"),
        pytest.param(lambda data: data + bytes(8), id="appended"),
        pytest.param(lambda data: b"", id="empty"),
    ])
    @pytest.mark.parametrize("mmap_mode", ["r", None])
    def test_a_column_file_of_the_wrong_size_is_refused(self, saved, edit, mmap_mode):
        path = saved / COLUMNS_FILE
        path.write_bytes(edit(path.read_bytes()))
        with pytest.raises(ArtifactFormatError, match="truncated or extended"):
            ScanIndex.load(saved, mmap_mode=mmap_mode)

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

    def test_unknown_declared_column(self, saved):
        header = json.loads((saved / HEADER_FILE).read_text())
        header["columns"]["foreign"] = dict(header["columns"]["graph_indptr"])
        (saved / HEADER_FILE).write_text(json.dumps(header))
        with pytest.raises(ArtifactFormatError, match="unknown columns.*foreign"):
            ScanIndex.load(saved)

    def test_resave_over_existing_artifact(self, saved, community_graph):
        # A later index can re-save over the same path; the swap is staged so
        # the directory is never a mix of old header and new columns.
        other = ScanIndex.build(community_graph, measure="jaccard")
        other.save(saved)
        loaded = ScanIndex.load(saved)
        assert loaded.measure == "jaccard"
        assert loaded.graph.num_vertices == community_graph.num_vertices
