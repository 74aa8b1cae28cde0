"""Tests for the ``repro bench record`` and ``repro bench gate`` subcommands."""

import argparse
import json
from pathlib import Path

import pytest

from repro.bench.store import DEFAULT_DB_NAME
from repro.cli import build_parser, main

FIXTURES = Path(__file__).resolve().parent / "fixtures"

BASELINE = str(FIXTURES / "run_baseline.json")
REGRESSED = str(FIXTURES / "run_regressed.json")
OTHER_MACHINE = str(FIXTURES / "run_other_machine.json")


@pytest.fixture
def db(tmp_path):
    return str(tmp_path / "trajectory.sqlite")


class TestParser:
    def test_bench_requires_a_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bench"])

    def test_record_arguments(self):
        args = build_parser().parse_args(["bench", "record", "a.json", "b.json"])
        assert args.files == ["a.json", "b.json"]
        assert args.db == Path(DEFAULT_DB_NAME)

    def test_gate_arguments(self):
        args = build_parser().parse_args(
            ["bench", "gate", "1", "2", "--threshold", "0.3"]
        )
        assert (args.baseline, args.candidate) == (1, 2)
        assert args.threshold == 0.3

    def test_bench_lists_exactly_record_and_gate(self):
        bench = next(
            action for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        ).choices["bench"]
        subcommands = next(
            action for action in bench._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        assert sorted(subcommands.choices) == ["gate", "record"]


class TestRecord:
    def test_records_payload_files(self, db, capsys):
        assert main(["bench", "record", BASELINE, REGRESSED, "--db", db]) == 0
        output = capsys.readouterr().out
        assert "recorded run 1 [serving]" in output
        assert "recorded run 2 [serving]" in output
        assert Path(db).exists()

    def test_rejects_malformed_payload(self, db, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"benchmark": "x", "note": "no numbers"}))
        assert main(["bench", "record", str(bad), "--db", db]) == 2
        assert "no numeric cells" in capsys.readouterr().err


class TestGate:
    def test_fails_on_seeded_regression(self, db, capsys):
        main(["bench", "record", BASELINE, REGRESSED, "--db", db])
        capsys.readouterr()
        assert main(["bench", "gate", "1", "2", "--db", db]) == 1
        assert "bench-gate: FAIL" in capsys.readouterr().out

    def test_passes_within_noise(self, db, capsys):
        main(["bench", "record", BASELINE, REGRESSED, "--db", db])
        capsys.readouterr()
        assert main(["bench", "gate", "1", "2", "--db", db,
                     "--threshold", "2.0"]) == 0
        assert "bench-gate: PASS" in capsys.readouterr().out

    def test_refuses_across_machine_classes(self, db, capsys):
        main(["bench", "record", BASELINE, OTHER_MACHINE, "--db", db])
        capsys.readouterr()
        assert main(["bench", "gate", "1", "2", "--db", db]) == 0
        assert "bench-gate: SKIP" in capsys.readouterr().out

    def test_rejects_half_specified_pairs(self, db, capsys):
        main(["bench", "record", BASELINE, "--db", db])
        capsys.readouterr()
        with pytest.raises(SystemExit) as exit_info:
            main(["bench", "gate", "1", "--db", db])
        assert exit_info.value.code == 2
        assert "candidate" in capsys.readouterr().err

    def test_unknown_run_id_errors(self, db, capsys):
        main(["bench", "record", BASELINE, "--db", db])
        capsys.readouterr()
        assert main(["bench", "gate", "1", "99", "--db", db]) == 2
        assert "no run with id 99" in capsys.readouterr().err

    def test_missing_store_is_a_clean_error(self, db, capsys):
        assert main(["bench", "gate", "1", "2", "--db", db]) == 2
        assert "no benchmark store" in capsys.readouterr().err
        assert not Path(db).exists()
