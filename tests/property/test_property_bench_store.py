"""Property-based tests for the benchmark store's lossless contract.

Two families: every committed ``BENCH_*.json`` file round-trips through
import -> query -> export without losing or renaming a cell, and
randomly generated payloads (valid and malformed) exercise the
validation boundary -- malformed ones must be rejected with
:class:`~repro.bench.store.BenchStoreError` before anything is written.
"""

import json
import math
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.bench.store import BenchStore, BenchStoreError, flatten_payload

settings.register_profile("repro-bench-store", max_examples=50, deadline=None)
settings.load_profile("repro-bench-store")

REPO_ROOT = Path(__file__).resolve().parents[2]
BENCH_FILES = sorted(REPO_ROOT.glob("BENCH_*.json"))


def _count_numbers(value) -> int:
    """Numeric leaves in a JSON document (bools count: they are stored)."""
    if isinstance(value, dict):
        return sum(_count_numbers(child) for child in value.values())
    if isinstance(value, list):
        return sum(_count_numbers(child) for child in value)
    return int(isinstance(value, (bool, int, float)))


# ----------------------------------------------------------------------
# Round-trip of every committed benchmark artifact
# ----------------------------------------------------------------------
def test_the_repo_ships_all_seven_artifacts():
    assert len(BENCH_FILES) == 7


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_committed_file_roundtrips_losslessly(path):
    payload = json.loads(path.read_text())
    with BenchStore() as store:
        run_id = store.import_file(path)
        assert store.export_run(run_id) == payload


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_committed_file_keeps_every_numeric_cell(path):
    payload = json.loads(path.read_text())
    with BenchStore() as store:
        run_id = store.import_file(path)
        cells = store.numeric_cells(run_id)
        assert len(cells) == _count_numbers(payload)
        # Normalised keys are unique: no two cells merged under one name.
        records = [r for r in store.cells(run_id) if r.value is not None]
        assert len(records) == len(cells)


# ----------------------------------------------------------------------
# Randomised valid payloads round-trip
# ----------------------------------------------------------------------
# Reserved names are excluded: the top-level structural keys, and the
# list groups labeled by an identifying field (duplicate identifiers
# would legitimately merge normalised keys, which is not what this
# round-trip property is about).
_KEYS = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz_", min_size=1, max_size=8
).filter(
    lambda k: k
    not in ("benchmark", "environment", "graphs", "jobs", "batches",
            "configs", "order_microbench")
)

_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(10**9), 10**9),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(max_size=12),
)

_VALUES = st.recursive(
    _LEAVES,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(_KEYS, children, max_size=4),
    ),
    max_leaves=20,
)

_PAYLOADS = st.fixed_dictionaries(
    {"benchmark": st.sampled_from(["fuzz", "demo"]), "seconds": st.floats(0.001, 10)},
    optional={
        "graphs": st.lists(
            st.dictionaries(_KEYS, _VALUES, max_size=4), max_size=3
        ),
        "extra": _VALUES,
    },
)


@given(payload=_PAYLOADS)
def test_random_valid_payload_roundtrips(payload):
    with BenchStore() as store:
        run_id = store.record(payload)
        assert store.export_run(run_id) == payload
        assert len(store.numeric_cells(run_id)) == _count_numbers(payload)


# ----------------------------------------------------------------------
# Randomised malformed payloads are rejected cleanly
# ----------------------------------------------------------------------
_NOT_A_MAPPING = st.one_of(
    st.none(), st.booleans(), st.integers(), st.text(), st.lists(st.integers())
)


@given(payload=_NOT_A_MAPPING)
def test_non_mapping_payloads_rejected(payload):
    with pytest.raises(BenchStoreError):
        flatten_payload(payload)


@given(
    benchmark=st.one_of(st.none(), st.just(""), st.integers(), st.lists(st.text())),
    seconds=st.floats(0.001, 10),
)
def test_bad_benchmark_fields_rejected(benchmark, seconds):
    with pytest.raises(BenchStoreError):
        flatten_payload({"benchmark": benchmark, "seconds": seconds})


@given(bad=st.sampled_from([math.nan, math.inf, -math.inf]), depth=st.integers(0, 2))
def test_non_finite_numbers_rejected_at_any_depth(bad, depth):
    payload = {"benchmark": "fuzz", "seconds": 1.0, "bad": bad}
    for _ in range(depth):
        payload = {"benchmark": "fuzz", "seconds": 1.0, "nested": payload}
    with pytest.raises(BenchStoreError, match="non-finite"):
        flatten_payload(payload)


@given(values=st.dictionaries(_KEYS, st.one_of(st.none(), st.text()), max_size=5))
def test_numberless_payloads_rejected(values):
    payload = {"benchmark": "fuzz", **values}
    with pytest.raises(BenchStoreError, match="no numeric cells"):
        flatten_payload(payload)


@given(payload=_PAYLOADS, bad=st.sampled_from([math.nan, {1: 2}, object()]))
def test_rejection_leaves_the_store_empty(payload, bad):
    payload = dict(payload)
    payload["poison"] = [1.0, bad]
    with BenchStore() as store:
        with pytest.raises(BenchStoreError):
            store.record(payload)
        rows = store._connection.execute(
            "SELECT (SELECT COUNT(*) FROM runs), (SELECT COUNT(*) FROM cells)"
        ).fetchone()
        assert rows == (0, 0)
