"""Every subcommand turns operator mistakes into one ``error:`` line and exit 2.

One table of subcommand x bad input, run through ``main()``: whatever layer
detects the mistake, the command must end with a single ``error: ...`` line
on stderr and status 2 -- never a traceback.
"""

import argparse
import json
import socket

import pytest

from repro.bench.store import BenchStore
from repro.cli import build_parser, main
from repro.graphs import paper_example_graph, write_edge_list


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Good and bad inputs shared by every case, as format-string fields."""
    root = tmp_path_factory.mktemp("cli-errors")
    graph = root / "paper.txt"
    write_edge_list(paper_example_graph(), graph)
    artifact = root / "paper.scanidx"
    assert main(["index", "build", str(graph), str(artifact)]) == 0
    bad_edges = root / "bad-edges.txt"
    bad_edges.write_text("0 1\n1 two\n")
    bad_delta = root / "bad-delta.txt"
    bad_delta.write_text("* 0 1\n")
    negative_edges = root / "negative-edges.txt"
    negative_edges.write_text("0 1\n-3 2\n")
    nan_edges = root / "nan-edges.txt"
    nan_edges.write_text("0 1 1.0\n1 2 nan\n")
    nan_delta = root / "nan-delta.txt"
    nan_delta.write_text("+ 0 3 nan\n")
    wide_edges = root / "wide-edges.txt"
    wide_edges.write_text("0 1\n1 2147483647\n")
    # A checksummed header missing one column's crc32 must not pass --deep.
    no_crc = root / "no-crc.scanidx"
    assert main(["index", "build", str(graph), str(no_crc)]) == 0
    header = json.loads((no_crc / "header.json").read_text())
    del header["columns"]["no_similarities"]["crc32"]
    (no_crc / "header.json").write_text(json.dumps(header))
    bad_payload = root / "bad-payload.json"
    bad_payload.write_text(json.dumps({"benchmark": "x", "rows": []}))
    db = root / "store.sqlite"
    with BenchStore(db):
        pass
    # A localhost port with nothing listening: bind, read it, close.
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        closed_port = probe.getsockname()[1]
    return {
        "graph": graph,
        "artifact": artifact,
        "bad_edges": bad_edges,
        "bad_delta": bad_delta,
        "negative_edges": negative_edges,
        "nan_edges": nan_edges,
        "nan_delta": nan_delta,
        "wide_edges": wide_edges,
        "no_crc": no_crc,
        "bad_payload": bad_payload,
        "db": db,
        "missing": root / "missing",
        "closed": f"127.0.0.1:{closed_port}",
    }


CASES = [
    ("run", "run figure99"),
    ("cluster", "cluster {graph} --mu 1"),
    ("cluster", "cluster {graph} --epsilon 1.5"),
    ("cluster", "cluster {graph} --epsilon -0.1"),
    ("cluster", "cluster {missing}"),
    ("cluster", "cluster {bad_edges}"),
    ("cluster", "cluster"),
    ("cluster", "cluster --load {missing}"),
    ("index build", "index build {missing} {missing}.scanidx"),
    ("index build", "index build {bad_edges} {missing}.scanidx"),
    ("index build", "index build {nan_edges} {missing}.scanidx"),
    ("index build", "index build {negative_edges} {missing}.scanidx"),
    ("index build", "index build {wide_edges} {missing}.scanidx"),
    ("index query", "index query {artifact} --mu 1"),
    ("index query", "index query {artifact} --epsilon 2"),
    ("index query", "index query {artifact} --epsilon nan"),
    ("index query", "index query {artifact} --pairs 2:nan"),
    ("index query", "index query {artifact} --pairs 5-0.6"),
    ("index query", "index query {artifact} --pairs 3:0.5 --mu 2"),
    ("index query", "index query {artifact} --epsilon 0.4 --pairs 3:0.5"),
    ("index query", "index query {missing}"),
    ("index verify", "index verify {missing}"),
    ("index verify", "index verify {no_crc} --deep"),
    ("update", "update {missing} {bad_delta}"),
    ("update", "update {artifact} {missing}"),
    ("update", "update {artifact} {bad_delta}"),
    ("update", "update {artifact} {nan_delta}"),
    ("serve", "serve {missing}"),
    ("serve", "serve {artifact} --requests {missing}"),
    ("serve", "serve {artifact} --workers 2"),
    ("serve", "serve {artifact} --port 0 --probe-interval 0"),
    ("serve", "serve {artifact} --port 0 --deadline nan"),
    ("serve", "serve {artifact} --port -1"),
    ("serve", "serve {artifact} --port 65536"),
    ("serve-client", "serve-client no-port"),
    ("serve-client", "serve-client {closed}"),
    ("bench record", "bench record {missing} --db {db}"),
    ("bench record", "bench record {bad_payload} --db {db}"),
    ("bench gate", "bench gate 1 2 --db {db}"),
    ("bench gate", "bench gate 1 2 --db {missing}"),
    ("obs report", "obs report {missing}"),
    ("obs validate", "obs validate {missing}"),
]


@pytest.mark.parametrize(
    "command", [command for _, command in CASES], ids=[command for _, command in CASES]
)
def test_operator_error_is_one_line_and_exit_2(workspace, command, capsys):
    argv = [part.format(**workspace) for part in command.split()]
    assert main(argv) == 2
    err = capsys.readouterr().err
    lines = err.strip().splitlines()
    assert len(lines) == 1, err
    assert lines[0].startswith("error: "), err


def _subcommands(parser, prefix=""):
    """Leaf subcommand names, e.g. ``cluster`` and ``index build``."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, child in action.choices.items():
                yield from _subcommands(child, f"{prefix}{name} ")
            return
    yield prefix.strip()


def test_table_covers_every_subcommand():
    # Listing commands have no operator input to get wrong.
    covered = {subcommand for subcommand, _ in CASES} | {"datasets", "experiments"}
    assert set(_subcommands(build_parser())) == covered
