"""Tests for the ``python -m repro`` command-line interface."""

from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.storage.format import FORMAT_VERSION, read_columns
from repro.graphs import paper_example_graph, write_edge_list


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_datasets_defaults(self):
        args = build_parser().parse_args(["datasets"])
        assert args.scale == "bench"

    def test_run_arguments(self):
        args = build_parser().parse_args(
            ["run", "figure5", "--scale", "tiny", "--datasets", "orkut-like"]
        )
        assert args.experiment == "figure5"
        assert args.scale == "tiny"
        assert args.datasets == ["orkut-like"]

    def test_cluster_defaults(self):
        args = build_parser().parse_args(["cluster", "graph.txt"])
        assert args.mu == 5 and args.epsilon == 0.6 and args.measure == "cosine"


class TestCommands:
    def test_datasets_command(self, capsys):
        assert main(["datasets", "--scale", "tiny"]) == 0
        output = capsys.readouterr().out
        assert "orkut-like" in output and "cochlea-like" in output

    def test_experiments_command(self, capsys):
        assert main(["experiments"]) == 0
        output = capsys.readouterr().out
        assert "figure5" in output and "table2" in output

    def test_run_table2(self, capsys):
        assert main(["run", "table2", "--scale", "tiny"]) == 0
        assert "Table 2" in capsys.readouterr().out

    def test_run_figure6_subset(self, capsys):
        code = main(
            ["run", "figure6", "--scale", "tiny", "--datasets", "webbase-like"]
        )
        assert code == 0
        assert "Figure 6" in capsys.readouterr().out

    def test_run_unknown_experiment(self, capsys):
        assert main(["run", "figure99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_cluster_command(self, tmp_path, capsys):
        path = tmp_path / "paper.txt"
        write_edge_list(paper_example_graph(), path)
        assert main(["cluster", str(path), "--mu", "3", "--epsilon", "0.6"]) == 0
        output = capsys.readouterr().out
        assert "clusters: 2" in output
        assert "hubs: 1" in output


@pytest.fixture()
def artifact(tmp_path):
    """A small saved index artifact plus the edge list it was built from."""
    path = tmp_path / "paper.txt"
    write_edge_list(paper_example_graph(), path)
    artifact_path = tmp_path / "paper.scanidx"
    assert main(["index", "build", str(path), str(artifact_path)]) == 0
    return artifact_path


class TestServeCommand:
    def test_serves_requests_from_file(self, artifact, tmp_path, capsys):
        requests = tmp_path / "requests.txt"
        requests.write_text("3:0.6\n2 0.5\n# a comment\n\n3:0.6\n")
        assert main(["serve", str(artifact), "--requests", str(requests)]) == 0
        captured = capsys.readouterr()
        lines = [l for l in captured.out.splitlines() if l.startswith("mu=")]
        assert len(lines) == 3
        assert "cache=miss" in lines[0]
        assert "cache=hit" in lines[2]          # repeat of the first request
        assert "served 3 requests" in captured.err

    def test_served_counts_match_direct_query(self, artifact, tmp_path, capsys):
        from repro import ScanIndex

        requests = tmp_path / "requests.txt"
        requests.write_text("3:0.6\n")
        assert main(["serve", str(artifact), "--requests", str(requests)]) == 0
        line = [l for l in capsys.readouterr().out.splitlines()
                if l.startswith("mu=")][0]
        clustering = ScanIndex.load(artifact).query(3, 0.6)
        assert f"clusters={clustering.num_clusters}" in line
        assert f"clustered={clustering.num_clustered_vertices}" in line

    def test_bad_request_lines_are_reported_not_fatal(self, artifact, tmp_path, capsys):
        requests = tmp_path / "requests.txt"
        requests.write_text("bogus\n3:0.6\n1:0.5\n3:1.7\n")
        assert main(["serve", str(artifact), "--requests", str(requests)]) == 1
        captured = capsys.readouterr()
        assert len([l for l in captured.out.splitlines() if l.startswith("mu=")]) == 1
        assert "expected MU:EPSILON" in captured.err
        assert "mu must be at least 2" in captured.err

    def test_missing_requests_file(self, artifact, capsys):
        assert main(["serve", str(artifact), "--requests", "/no/such/file"]) == 2
        assert "cannot read requests" in capsys.readouterr().err

    def test_interactive_client_gets_each_answer_before_next_request(self, artifact):
        """Responses must flush per request, or a piped client deadlocks."""
        import os
        import subprocess
        import sys

        env = dict(os.environ)
        env["PYTHONPATH"] = str(
            Path(__file__).resolve().parent.parent.parent / "src"
        ) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", str(artifact)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            env=env,
            text=True,
        )
        try:
            for request in ("3:0.6\n", "3:0.6\n"):
                proc.stdin.write(request)
                proc.stdin.flush()
                line = proc.stdout.readline()   # hangs if responses buffer up
                assert line.startswith("mu=3"), line
            assert "cache=hit" in line
        finally:
            proc.stdin.close()
            proc.wait(timeout=30)


class TestUpdateCommand:
    def test_applies_delta_in_place_and_records_lineage(
        self, artifact, tmp_path, capsys
    ):
        delta = tmp_path / "delta.txt"
        delta.write_text("# grow the example\n+ 0 9\n- 0 1\n")
        assert main(["update", str(artifact), str(delta)]) == 0
        out = capsys.readouterr().out
        assert "applied 1 insertions, 1 deletions" in out
        assert "1 update batches in lineage" in out

        from repro import ScanIndex

        loaded = ScanIndex.load(artifact)
        assert loaded.graph.has_edge(0, 9)
        assert not loaded.graph.has_edge(0, 1)
        assert len(loaded.update_lineage) == 1
        # The patched artifact equals a rebuild on the mutated graph.
        edge_u, edge_v = loaded.graph.edge_list()
        from repro.graphs import from_edge_list

        rebuilt = ScanIndex.build(
            from_edge_list(
                list(zip(edge_u.tolist(), edge_v.tolist())),
                num_vertices=loaded.graph.num_vertices,
            )
        )
        assert (
            loaded.similarities.values.tobytes()
            == rebuilt.similarities.values.tobytes()
        )

    def test_output_flag_leaves_source_artifact_untouched(
        self, artifact, tmp_path, capsys
    ):
        delta = tmp_path / "delta.txt"
        delta.write_text("+ 0 9\n")
        target = tmp_path / "patched.scanidx"
        assert main(["update", str(artifact), str(delta), "--output", str(target)]) == 0
        from repro import ScanIndex

        assert not ScanIndex.load(artifact).graph.has_edge(0, 9)
        assert ScanIndex.load(target).graph.has_edge(0, 9)

    def test_inapplicable_delta_is_an_operator_error(self, artifact, tmp_path, capsys):
        delta = tmp_path / "delta.txt"
        delta.write_text("+ 0 1\n")      # already present in the example graph
        assert main(["update", str(artifact), str(delta)]) == 2
        err = capsys.readouterr().err
        assert "error: cannot apply delta" in err
        assert "Traceback" not in err

    def test_malformed_delta_file(self, artifact, tmp_path, capsys):
        delta = tmp_path / "delta.txt"
        delta.write_text("insert 0 9\n")
        assert main(["update", str(artifact), str(delta)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_delta_file(self, artifact, tmp_path, capsys):
        assert main(["update", str(artifact), str(tmp_path / "none.txt")]) == 2
        assert "cannot read delta file" in capsys.readouterr().err

    def test_unwritable_output_is_an_operator_error(
        self, artifact, tmp_path, capsys, monkeypatch
    ):
        delta = tmp_path / "delta.txt"
        delta.write_text("+ 0 9\n")
        from repro.core.index import ScanIndex

        def refuse(self, path):
            raise PermissionError(f"cannot write {path}")

        monkeypatch.setattr(ScanIndex, "save", refuse)
        assert main(["update", str(artifact), str(delta)]) == 2
        err = capsys.readouterr().err
        assert "cannot save updated artifact" in err
        assert "Traceback" not in err


class TestIndexQueryCommand:
    def test_mu_beyond_int64_selects_no_cores(self, artifact, capsys):
        mu = 2**63
        assert main(["index", "query", str(artifact), "--mu", str(mu),
                     "--epsilon", "0.3"]) == 0
        row = capsys.readouterr().out.splitlines()[-1].split()
        assert row == [str(mu), "0.3", "0", "0"]


class TestArtifactErrorReporting:
    """Missing/corrupt artifacts are operator errors: message, not traceback."""

    @pytest.mark.parametrize("command", [
        ["cluster", "--load", "{path}"],
        ["index", "query", "{path}"],
        ["serve", "{path}", "--requests", "/dev/null"],
        ["update", "{path}", "/dev/null"],
    ])
    def test_missing_artifact_path(self, command, tmp_path, capsys):
        missing = tmp_path / "nowhere.scanidx"
        argv = [token.format(path=missing) for token in command]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "error: cannot load index artifact" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", [
        ["cluster", "--load", "{path}"],
        ["index", "query", "{path}"],
    ])
    def test_corrupt_artifact_header(self, command, artifact, capsys):
        (artifact / "header.json").write_text("{not json")
        argv = [token.format(path=artifact) for token in command]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "error: cannot load index artifact" in err
        assert "corrupt header" in err

    def test_corrupt_column_archive(self, artifact, capsys):
        (artifact / "columns.npz").write_bytes(b"definitely not a zip file")
        assert main(["index", "query", str(artifact)]) == 2
        assert "error: cannot load index artifact" in capsys.readouterr().err


class TestIndexVerifyCommand:
    def test_fast_verify_reports_structure_and_checksums(self, artifact, capsys):
        assert main(["index", "verify", str(artifact)]) == 0
        out = capsys.readouterr().out
        assert f"format: version {FORMAT_VERSION}" in out
        assert "carry checksums" in out
        assert "stale scratch: none" in out

    def test_deep_verify_checks_stored_bytes(self, artifact, capsys):
        assert main(["index", "verify", str(artifact), "--deep"]) == 0
        assert "verified against stored bytes" in capsys.readouterr().out

    def test_deep_verify_catches_corruption_fast_mode_misses(
        self, artifact, capsys
    ):
        # One flipped payload byte: the structure still parses.
        offset = read_columns(artifact)["no_similarities"].offset + 3
        archive = artifact / "columns.npz"
        data = bytearray(archive.read_bytes())
        data[offset] ^= 0xFF
        archive.write_bytes(data)
        assert main(["index", "verify", str(artifact)]) == 0
        assert main(["index", "verify", str(artifact), "--deep"]) == 2
        err = capsys.readouterr().err
        assert "fails verification" in err and "checksum" in err
        assert "Traceback" not in err

    def test_corrupt_npy_header_is_one_error_line(self, artifact, capsys):
        archive = artifact / "columns.npz"
        data = bytearray(archive.read_bytes())
        # An unclosed header dict: numpy's fallback tokenizer gives up on it.
        data[data.index(b"}", data.index(b"{'descr'"))] = ord("(")
        archive.write_bytes(data)
        for command in (["index", "verify"], ["index", "query"]):
            assert main([*command, str(artifact)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1

    def test_missing_artifact_is_an_operator_error(self, tmp_path, capsys):
        assert main(["index", "verify", str(tmp_path / "nowhere")]) == 2
        err = capsys.readouterr().err
        assert "fails verification" in err and "Traceback" not in err

    def test_clean_flag_sweeps_stale_scratch(self, artifact, capsys):
        from repro.storage.integrity import scratch_path

        leftover = scratch_path(artifact, pid=2**22 + 77)
        leftover.mkdir()
        assert main(["index", "verify", str(artifact)]) == 0
        assert leftover.name in capsys.readouterr().out
        assert main(["index", "verify", str(artifact), "--clean"]) == 0
        out = capsys.readouterr().out
        assert f"removed stale scratch {leftover.name}" in out
        assert "stale scratch: none" in out
        assert not leftover.exists()

    def test_verify_recovers_a_crashed_commit(self, artifact, capsys):
        import os

        from repro.storage.integrity import backup_path

        os.replace(artifact, backup_path(artifact, pid=2**22 + 88))
        assert main(["index", "verify", str(artifact)]) == 0
        out = capsys.readouterr().out
        assert "recovery: rolled-back from parked backup" in out
        assert main(["index", "query", str(artifact)]) == 0


class TestUpdateDurability:
    """``repro update`` stays a clean operator surface under corruption."""

    def _delta(self, tmp_path):
        delta = tmp_path / "delta.txt"
        delta.write_text("- 0 1\n")
        return delta

    def test_unsavable_output_is_an_operator_error(
        self, artifact, tmp_path, capsys
    ):
        # The save path's clean-error contract: a target whose parent is a
        # regular file cannot hold an artifact directory, and the failure
        # surfaces as a message, not a traceback.
        blocker = tmp_path / "a-file"
        blocker.write_text("in the way")
        out_path = blocker / "nested" / "updated.scanidx"
        code = main(["update", str(artifact), str(self._delta(tmp_path)),
                     "--output", str(out_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "error: cannot save updated artifact" in err
        assert "Traceback" not in err

    def test_interrupted_update_save_leaves_loadable_artifact(
        self, artifact, tmp_path, capsys
    ):
        from repro.testing import FaultSpec, inject

        with inject(FaultSpec(site="storage.commit.pre_swap")):
            with pytest.raises(BaseException, match="simulated crash"):
                main(["update", str(artifact), str(self._delta(tmp_path))])
        capsys.readouterr()
        # the next operator command transparently recovers the old state
        assert main(["index", "verify", str(artifact), "--deep"]) == 0
        assert "recovery: rolled-back" in capsys.readouterr().out
        assert main(["index", "query", str(artifact)]) == 0
