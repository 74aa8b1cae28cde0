"""Property tests for the two places arbitrary outside bytes enter the program.

1. **Artifact loader.**  An artifact whose ``header.json`` or
   ``columns.bin`` had bits flipped, was truncated, or had a run of bytes
   overwritten either still loads or raises
   :class:`~repro.storage.format.ArtifactFormatError` -- never any other
   exception -- with and without the deep checksum pass, memory-mapped or
   read into memory.  The CLI turns that error into one ``error:`` line.
   A column record edited off its canonical dtype, length or offset always
   raises it.
2. **Wire requests.**  Any text line handed to
   :func:`repro.serve.wire.parse_request` and then to
   :meth:`ClusterSession.serve <repro.serve.session.ClusterSession.serve>`
   yields an answer or a ``ValueError`` (the serving loops' ``error:``
   line), never another exception.
"""

import copy
import json
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ScanIndex
from repro.graphs import from_edge_list
from repro.serve import wire
from repro.storage.format import (
    BOUNDARY_COLUMN,
    COLUMN_ALIGNMENT,
    COLUMNS_FILE,
    HEADER_FILE,
    ArtifactFormatError,
)

EDGES = [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (3, 5), (4, 5)]


@pytest.fixture(scope="module")
def artifact():
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "base.scanidx"
        ScanIndex.build(from_edge_list(EDGES)).save(path)
        yield path


#: (damaged file, kind of damage, seeded source of the damage's details).
CORRUPTIONS = st.tuples(
    st.sampled_from([HEADER_FILE, COLUMNS_FILE]),
    st.sampled_from(["flip", "truncate", "garbage"]),
    st.randoms(use_true_random=False),
)


def _corrupt(data: bytes, kind: str, rng) -> bytes:
    data = bytearray(data)
    if kind == "flip":
        for _ in range(rng.randint(1, 4)):
            bit = rng.randrange(len(data) * 8)
            data[bit // 8] ^= 1 << (bit % 8)
    elif kind == "truncate":
        del data[rng.randrange(len(data)):]
    else:
        start = rng.randrange(len(data))
        data[start:start + rng.randint(1, 32)] = rng.randbytes(rng.randint(1, 32))
    return bytes(data)


class TestArtifactLoaderFuzz:
    @settings(max_examples=300, deadline=None)
    @given(CORRUPTIONS)
    def test_load_succeeds_or_raises_format_error(self, artifact, corruption):
        name, kind, rng = corruption
        with tempfile.TemporaryDirectory() as scratch:
            target = Path(scratch) / "damaged.scanidx"
            shutil.copytree(artifact, target)
            original = (target / name).read_bytes()
            (target / name).write_bytes(_corrupt(original, kind, rng))
            for verify in (False, True):
                for mmap_mode in ("r", None):
                    try:
                        ScanIndex.load(target, verify=verify, mmap_mode=mmap_mode)
                    except ArtifactFormatError:
                        pass


@pytest.fixture(scope="module")
def session():
    return ScanIndex.build(from_edge_list(EDGES)).session()


class TestWireFuzz:
    @settings(max_examples=500, deadline=None)
    @given(
        st.one_of(
            st.text(),
            st.from_regex(r"\A\s*-?[0-9]{1,25}\s*[: ]\s*[-+0-9.eEnaif]{1,12}\s*\Z"),
        )
    )
    def test_request_line_answers_or_raises_value_error(self, session, line):
        try:
            mu, epsilon = wire.parse_request(line)
            wire.format_response(session.serve(mu, epsilon))
        except ValueError:
            pass


def _neighbor_offset(records, name, size):
    """The offset of the column laid out just before ``name`` (or after it)."""
    names = sorted(records)
    at = names.index(name)
    return records[names[at - 1] if at else names[1]]["offset"]


#: Edits of one column record: (field, new value from (records, name, file size)).
RECORD_MUTATIONS = {
    "negative-offset": ("offset", lambda r, name, size: -COLUMN_ALIGNMENT),
    "bool-offset": ("offset", lambda r, name, size: True),
    "float-offset": ("offset", lambda r, name, size: float(r[name]["offset"])),
    "string-offset": ("offset", lambda r, name, size: str(r[name]["offset"])),
    "misaligned-offset": ("offset", lambda r, name, size: r[name]["offset"] + 8),
    "overlapping-offset": ("offset", _neighbor_offset),
    "past-the-end-offset": ("offset", lambda r, name, size: size + COLUMN_ALIGNMENT),
    "missing-offset": ("offset", None),
    "longer": ("length", lambda r, name, size: r[name]["length"] + 1),
    "shorter": ("length", lambda r, name, size: r[name]["length"] - 1),
    "doubled": ("length", lambda r, name, size: 2 * r[name]["length"]),
    "negative-length": ("length", lambda r, name, size: -1),
    "float-length": ("length", lambda r, name, size: float(r[name]["length"])),
    "bool-length": ("length", lambda r, name, size: True),
    "narrower-dtype": ("dtype", lambda r, name, size: "float32"
                       if r[name]["dtype"] == "float64" else "int16"),
    "wider-dtype": ("dtype", lambda r, name, size: "complex128"
                    if r[name]["dtype"] == "float64" else "int64"
                    if r[name]["dtype"] == "int32" else "float64"),
    "byte-order-dtype": ("dtype", lambda r, name, size: np.dtype(r[name]["dtype"]).str),
    "non-string-dtype": ("dtype", lambda r, name, size: 8),
}


class TestColumnRecordMutations:
    """Every column record off its canonical dtype, length or offset is refused.

    Every load refuses each edit, except one: a boundary table shortened
    within its alignment padding is still strictly increasing and no
    longer than ``m``, so only the deep check, whose CRC then covers a
    different byte range, can refuse it.
    """

    @pytest.mark.parametrize("mutation", sorted(RECORD_MUTATIONS))
    def test_each_column_record_mutation_is_refused(self, artifact, mutation):
        field, value = RECORD_MUTATIONS[mutation]
        size = (artifact / COLUMNS_FILE).stat().st_size
        header = json.loads((artifact / HEADER_FILE).read_text())
        for name in sorted(header["columns"]):
            records = copy.deepcopy(header["columns"])
            if value is None:
                del records[name][field]
            else:
                records[name][field] = value(records, name, size)
            assert json.dumps(records) != json.dumps(header["columns"]), name
            with tempfile.TemporaryDirectory() as scratch:
                target = Path(scratch) / "mutated.scanidx"
                shutil.copytree(artifact, target)
                (target / HEADER_FILE).write_text(json.dumps({**header, "columns": records}))
                # A length edit may surface at the column laid out after it.
                named = None if field == "length" else f"'{name}'"
                deep_only = (mutation, name) == ("shorter", BOUNDARY_COLUMN)
                for verify in ([True] if deep_only else [False, True]):
                    for mmap_mode in ("r", None):
                        with pytest.raises(ArtifactFormatError, match=named):
                            ScanIndex.load(target, verify=verify, mmap_mode=mmap_mode)
