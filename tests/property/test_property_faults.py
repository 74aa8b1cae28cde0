"""Property tests for the durability and supervision claims, via fault injection.

The claims under test, each driven by seeded randomized faults:

1. **Old-or-new.**  A save killed at a random byte offset of the column
   archive, or at any named window of the commit protocol, leaves the
   target loading as *exactly* the complete old artifact or the complete
   new one -- proven by comparing every loaded column against both, and by
   deep verification passing afterwards.
2. **Crash-safe in-place update.**  The same, where "new" is a patched
   index re-saved over its ancestor: an interrupted ``repro update`` leaves
   the pre-update or post-update lineage, never a mix.
3. **Worker deaths never change the index.**  A build whose pool worker is
   killed (real ``os._exit``) on a randomly chosen task is bit-identical to
   the serial build.

Faults are deterministic: all randomness is drawn from seeded generators
*here* and passed in as concrete offsets/task indices, so any failure
replays from its seed.
"""

import warnings

import numpy as np
import pytest

from repro import ScanIndex
from repro.graphs import from_edge_list, planted_partition
from repro.parallel import execute
from repro.parallel.execute import active_shared_segments
from repro.parallel.supervise import DegradedExecutionWarning, SupervisionPolicy
from repro.storage import IndexArtifact, verify_artifact
from repro.storage.format import COLUMNS_FILE
from repro.storage.integrity import find_backups, find_scratch, scratch_path
from repro.testing import FaultSpec, SimulatedCrash, inject

#: Guaranteed-dead pid for fabricated leftover scratch directories.
DEAD_PID = 2**22 + 4242


def _graph():
    return planted_partition(3, 12, p_intra=0.5, p_inter=0.03, seed=5)


def _snapshot(path):
    """Every stored column of an artifact, materialised off the mmap."""
    artifact = IndexArtifact.load(path, mmap_mode=None)
    return {name: column.copy() for name, column in artifact.columns.items()}


def _assert_is_exactly(path, *candidates):
    """The artifact at ``path`` equals one candidate snapshot, column for column."""
    loaded = _snapshot(path)
    for candidate in candidates:
        if set(candidate) == set(loaded) and all(
            np.array_equal(candidate[name], loaded[name]) for name in candidate
        ):
            return
    raise AssertionError(
        "artifact is neither the complete old nor the complete new state"
    )


@pytest.fixture(scope="module")
def indexes():
    """One graph, two distinct indexes (old and new state of one path)."""
    graph = _graph()
    return ScanIndex.build(graph, measure="cosine"), ScanIndex.build(
        graph, measure="jaccard"
    )


# ----------------------------------------------------------------------
# 1. Old-or-new under randomized torn writes
# ----------------------------------------------------------------------
def test_save_torn_at_random_byte_offsets_leaves_old_or_new(tmp_path, indexes):
    old_index, new_index = indexes
    probe = tmp_path / "probe.scanidx"
    new_index.save(probe)
    archive_size = (probe / COLUMNS_FILE).stat().st_size
    rng = np.random.default_rng(20260808)
    offsets = sorted(
        {int(k) for k in rng.integers(1, archive_size + 4096, size=12)}
    )
    path = tmp_path / "artifact.scanidx"
    old_index.save(path)
    old = _snapshot(path)
    new = _snapshot(probe)
    for offset in offsets:
        try:
            with inject(FaultSpec(site="storage.columns.write",
                                  after_bytes=offset)):
                new_index.save(path)
        except SimulatedCrash:
            pass  # offsets beyond the written size let the save complete
        _assert_is_exactly(path, old, new)
        verify_artifact(path, deep=True)
        # reset to the old state for the next offset (cleans scratch too)
        old_index.save(path)


@pytest.mark.parametrize("site", [
    "storage.header.write",
    "storage.commit.fsync",
    "storage.commit.pre_backup",
    "storage.commit.pre_swap",
    "storage.commit.pre_cleanup",
])
def test_save_crashed_in_every_commit_window_leaves_old_or_new(
    tmp_path, indexes, site
):
    old_index, new_index = indexes
    path = tmp_path / "artifact.scanidx"
    old_index.save(path)
    old = _snapshot(path)
    with inject(FaultSpec(site=site)):
        with pytest.raises(SimulatedCrash):
            new_index.save(path)
    # A pre_swap death leaves the target missing with the old state parked;
    # loading recovers it -- which is exactly what _snapshot exercises.
    _assert_is_exactly(path, old, _snapshot_new(tmp_path, new_index))
    report = verify_artifact(path, deep=True)
    assert report.checksums_checked == report.num_columns


def _snapshot_new(tmp_path, new_index):
    reference = tmp_path / "reference-new.scanidx"
    if not reference.exists():
        new_index.save(reference)
    return _snapshot(reference)


def test_interrupted_save_leaves_no_torn_scratch_behind_next_save(
    tmp_path, indexes
):
    old_index, new_index = indexes
    path = tmp_path / "artifact.scanidx"
    old_index.save(path)
    with inject(FaultSpec(site="storage.columns.write", after_bytes=64)):
        with pytest.raises(SimulatedCrash):
            new_index.save(path)
    # the dead writer's scratch lingers (this process's own pid)...
    assert find_scratch(path)
    # ...is reported by verify...
    assert verify_artifact(path).stale_scratch
    # ...and the next save sweeps it and commits normally.
    new_index.save(path)
    assert find_scratch(path) == [] and find_backups(path) == []
    _assert_is_exactly(path, _snapshot_new(tmp_path, new_index))


def test_fabricated_dead_writer_scratch_is_cleaned(tmp_path, indexes):
    old_index, _ = indexes
    path = tmp_path / "artifact.scanidx"
    old_index.save(path)
    leftover = scratch_path(path, pid=DEAD_PID)
    leftover.mkdir()
    (leftover / COLUMNS_FILE).write_bytes(b"torn garbage")
    assert verify_artifact(path).stale_scratch == [leftover.name]
    old_index.save(path)
    assert not leftover.exists()
    assert verify_artifact(path).stale_scratch == []


# ----------------------------------------------------------------------
# 2. Crash-safe in-place update
# ----------------------------------------------------------------------
@pytest.mark.parametrize("site,expect", [
    ("storage.commit.pre_swap", "old"),      # rollback window
    ("storage.commit.pre_cleanup", "new"),   # commit already durable
])
def test_interrupted_in_place_update_is_old_or_new_by_window(
    tmp_path, site, expect
):
    graph = from_edge_list(
        [(u, v) for u in range(10) for v in range(u + 1, 10)
         if (u * 7 + v) % 3 != 0]
    )
    index = ScanIndex.build(graph, measure="cosine")
    path = tmp_path / "artifact.scanidx"
    index.save(path)
    old = _snapshot(path)
    index.apply_updates(deletions=[(0, 1)], insertions=[(0, 9)])
    with inject(FaultSpec(site=site)):
        with pytest.raises(SimulatedCrash):
            index.save(path)
    recovered = ScanIndex.load(path, verify=True)
    if expect == "old":
        assert recovered.update_lineage == []
        assert set(_snapshot(path)) == set(old)
    else:
        assert len(recovered.update_lineage) == 1
    # Either way the surviving artifact answers queries consistently with
    # its own lineage: a rebuild on the matching edge set agrees.
    reference = (
        ScanIndex.build(graph, measure="cosine") if expect == "old" else index
    )
    assert recovered.query(4, 0.5).labels.tolist() == \
        reference.query(4, 0.5).labels.tolist()


# ----------------------------------------------------------------------
# 3. Worker deaths never change the built index
# ----------------------------------------------------------------------
def test_randomly_killed_worker_leaves_build_bit_identical(
    tmp_path, monkeypatch
):
    monkeypatch.setattr(execute, "PARALLEL_FLOOR_ARCS", 0)
    monkeypatch.setattr(
        execute, "SupervisionPolicy",
        lambda: SupervisionPolicy(task_timeout=10.0, retries=2,
                                  backoff_base=0.01, backoff_cap=0.05),
    )
    graph = _graph()
    serial = ScanIndex.build(graph, jobs=1)
    rng = np.random.default_rng(97)
    task = int(rng.integers(0, 2))  # the similarity pass dispatches 2 tasks
    token = tmp_path / f"kill-task-{task}"
    with inject(FaultSpec(site="parallel.worker.task", action="kill",
                          task=task, times=1, token=str(token))):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            survived = ScanIndex.build(graph, jobs=2)
    assert token.stat().st_size == 1
    assert not [w for w in caught
                if issubclass(w.category, DegradedExecutionWarning)]
    assert active_shared_segments() == 0
    for a, b in zip(
        (serial.similarities.values, serial.neighbor_order.neighbors,
         serial.core_order.vertices, serial.core_order.thresholds),
        (survived.similarities.values, survived.neighbor_order.neighbors,
         survived.core_order.vertices, survived.core_order.thresholds),
    ):
        assert np.array_equal(np.asarray(a), np.asarray(b))
