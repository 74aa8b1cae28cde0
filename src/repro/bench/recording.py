"""Glue between the benchmark runners and the results store.

``--record [DB]`` appends a runner's payload, stamped with the shared
environment block, to the sqlite trajectory store.  ``repro run`` (every
paper figure and table) and ``benchmarks/bench_obs_overhead.py`` share
this one helper, so they cannot drift into separate recording conventions.
"""

from __future__ import annotations

import argparse
from pathlib import Path

from .environment import capture_environment
from .store import BenchStore

__all__ = [
    "DEFAULT_DB_NAME",
    "add_record_argument",
    "record_payload",
    "with_environment",
]

#: Default trajectory-store filename, created next to the BENCH_*.json files.
DEFAULT_DB_NAME = "BENCH_trajectory.sqlite"


def add_record_argument(parser: argparse.ArgumentParser, repo_root: Path) -> None:
    """Install the shared ``--record [DB]`` flag on a runner's parser."""
    parser.add_argument(
        "--record",
        metavar="DB",
        type=Path,
        nargs="?",
        const=repo_root / DEFAULT_DB_NAME,
        default=None,
        help="append this run to the sqlite trajectory store "
             f"(default store: {repo_root / DEFAULT_DB_NAME})",
    )


def with_environment(results: dict) -> dict:
    """Merge the shared environment block into a runner's payload.

    Runner-specific fields already present (``pool_startup_seconds``,
    ``parallel_floor_arcs``) win over nothing -- they are kept verbatim;
    only the shared fingerprint fields and ``git_hash`` are added.
    """
    environment = capture_environment()
    environment.update(results.get("environment") or {})
    merged = dict(results)
    merged["environment"] = environment
    return merged


def record_payload(
    db_path: Path,
    results: dict,
    *,
    source: str,
    smoke: bool = False,
) -> int:
    """Append one runner payload to the store at ``db_path``; return run id.

    The payload is stamped with the shared environment block first, so a
    recorded run always carries a complete fingerprint even when the
    runner's JSON schema predates environment capture.
    """
    payload = with_environment(results)
    with BenchStore(db_path) as store:
        run_id = store.record(payload, source=source, smoke=smoke)
    print(f"recorded run {run_id} ({payload['benchmark']}) in {db_path}")
    return run_id
