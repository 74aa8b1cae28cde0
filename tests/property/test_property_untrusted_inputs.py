"""Property tests for the two places arbitrary outside bytes enter the program.

1. **Artifact loader.**  An artifact whose ``header.json`` or
   ``columns.npz`` had bits flipped, was truncated, or had a run of bytes
   overwritten either still loads or raises
   :class:`~repro.storage.format.ArtifactFormatError` -- never any other
   exception -- with and without the deep checksum pass, memory-mapped or
   read into memory.  The CLI turns that error into one ``error:`` line.
2. **Wire requests.**  Any text line handed to
   :func:`repro.serve.wire.parse_request` and then to
   :meth:`ClusterSession.serve <repro.serve.session.ClusterSession.serve>`
   yields an answer or a ``ValueError`` (the serving loops' ``error:``
   line), never another exception.
"""

import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ScanIndex
from repro.graphs import from_edge_list
from repro.serve import wire
from repro.storage.format import COLUMNS_FILE, HEADER_FILE, ArtifactFormatError

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
