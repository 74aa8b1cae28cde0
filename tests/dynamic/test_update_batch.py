"""Tests for UpdateBatch canonicalization and the delta-file format."""

import numpy as np
import pytest

from repro.dynamic import UpdateBatch, load_delta_file
from repro.graphs import from_edge_list


class TestCanonicalization:
    def test_endpoints_swapped_and_sorted(self):
        batch = UpdateBatch.from_edges([(5, 2), (1, 0)], [(9, 3)])
        assert batch.insert_u.tolist() == [0, 2]
        assert batch.insert_v.tolist() == [1, 5]
        assert batch.delete_u.tolist() == [3]
        assert batch.delete_v.tolist() == [9]

    def test_duplicate_insertions_keep_last_weight(self):
        batch = UpdateBatch.from_edges([(0, 1, 2.0), (1, 0, 7.0)], [])
        assert batch.num_insertions == 1
        assert batch.insert_weights.tolist() == [7.0]

    def test_mixed_weighted_and_unweighted_items_default_to_one(self):
        batch = UpdateBatch.from_edges([(0, 1), (2, 3, 4.0)], [])
        assert batch.insert_weights.tolist() == [1.0, 4.0]

    def test_unweighted_insertions_have_no_weights(self):
        batch = UpdateBatch.from_edges([(0, 1), (2, 3)], [])
        assert batch.insert_weights is None

    def test_duplicate_deletions_collapse(self):
        batch = UpdateBatch.from_edges([], [(0, 1), (1, 0), (0, 1)])
        assert batch.num_deletions == 1

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            UpdateBatch.from_edges([(3, 3)], [])
        with pytest.raises(ValueError, match="self-loop"):
            UpdateBatch.from_edges([], [(2, 2)])

    def test_negative_ids_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            UpdateBatch.from_edges([(-1, 2)], [])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_weights_rejected(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            UpdateBatch.from_edges([(0, 1, 2.0), (0, 3, bad)], [])


class TestCancellation:
    def test_opposing_ops_cancel(self):
        batch = UpdateBatch.from_edges([(0, 1), (2, 3)], [(1, 0), (4, 5)])
        assert batch.num_cancelled == 1
        assert batch.num_insertions == 1
        assert batch.insert_u.tolist() == [2]
        assert batch.num_deletions == 1
        assert batch.delete_u.tolist() == [4]

    def test_full_cancellation_yields_empty_batch(self):
        batch = UpdateBatch.from_edges([(0, 1)], [(0, 1)])
        assert batch.is_empty
        assert batch.num_cancelled == 1
        assert batch.touched_vertices().size == 0

    def test_weighted_opposing_ops_are_kept_as_a_reweight(self):
        """delete + re-insert with a weight is the way to reweight an edge."""
        batch = UpdateBatch.from_edges([(3, 5, 0.25)], [(5, 3)])
        assert batch.num_cancelled == 0
        assert batch.num_insertions == 1 and batch.num_deletions == 1
        assert batch.insert_weights.tolist() == [0.25]

    def test_explicitness_is_per_insertion_not_per_batch(self):
        """An unrelated weighted op must not turn an opposing pair into a
        reweight-to-default: only the insertion's own explicit weight does."""
        batch = UpdateBatch.from_edges([(0, 4, 2.0), (1, 2)], [(1, 2)])
        assert batch.num_cancelled == 1
        assert batch.num_insertions == 1 and batch.num_deletions == 0
        assert batch.insert_u.tolist() == [0]
        # ... while an explicit 1.0 IS a reweight request.
        reweight = UpdateBatch.from_edges([(1, 2, 1.0)], [(1, 2)])
        assert reweight.num_cancelled == 0
        assert reweight.num_insertions == 1 and reweight.num_deletions == 1


class TestAffectedSet:
    def test_touched_vertices_are_all_endpoints(self):
        batch = UpdateBatch.from_edges([(0, 5)], [(2, 5), (7, 3)])
        assert batch.touched_vertices().tolist() == [0, 2, 3, 5, 7]

    def test_affected_edges_are_those_incident_to_touched(self):
        graph = from_edge_list(
            [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)], num_vertices=6
        )
        batch = UpdateBatch.from_edges([], [(2, 3)])
        # Edges touching vertex 2 or 3: (1,2), (2,3), (3,4).
        affected, affected_u, affected_v = batch.affected_edges(graph)
        edge_u, edge_v = graph.edge_list()
        pairs = {(int(edge_u[e]), int(edge_v[e])) for e in affected}
        assert pairs == {(1, 2), (2, 3), (3, 4)}
        assert len(affected) == len(pairs)          # each edge listed once
        assert np.array_equal(affected_u, edge_u[affected])
        assert np.array_equal(affected_v, edge_v[affected])

    def test_empty_batch_affects_nothing(self):
        graph = from_edge_list([(0, 1)], num_vertices=2)
        ids, edge_u, edge_v = UpdateBatch.from_edges([], []).affected_edges(graph)
        assert ids.size == edge_u.size == edge_v.size == 0


class TestDeltaFile:
    def test_parses_ops_comments_and_weights(self, tmp_path):
        path = tmp_path / "delta.txt"
        path.write_text(
            "# a comment\n"
            "+ 0 5\n"
            "% another comment\n"
            "+ 7 2 1.5\n"
            "\n"
            "- 3 4\n"
        )
        batch = load_delta_file(path)
        assert batch.num_insertions == 2
        assert batch.insert_u.tolist() == [0, 2]
        assert batch.insert_weights.tolist() == [1.0, 1.5]
        assert batch.num_deletions == 1

    @pytest.mark.parametrize(
        "line", ["x 0 1", "+ 0", "- 0 1 2", "0 1", "+ 0 1 2 3", "+ 0 3 inf", "+ 0 3 nan"]
    )
    def test_malformed_lines_raise_with_location(self, tmp_path, line):
        path = tmp_path / "delta.txt"
        path.write_text(line + "\n")
        with pytest.raises(ValueError, match="delta.txt:1"):
            load_delta_file(path)
