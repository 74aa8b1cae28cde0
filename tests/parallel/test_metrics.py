"""Tests for work-span counters and cost reports."""

import math

import pytest

from repro.parallel import CostReport, WorkSpanCounter, ceil_log2


class TestCeilLog2:
    def test_zero_and_one_have_zero_depth(self):
        assert ceil_log2(0) == 0.0
        assert ceil_log2(1) == 0.0

    def test_powers_of_two(self):
        assert ceil_log2(2) == 1.0
        assert ceil_log2(8) == 3.0
        assert ceil_log2(1024) == 10.0

    def test_non_powers_round_up(self):
        assert ceil_log2(3) == 2.0
        assert ceil_log2(9) == 4.0


class TestWorkSpanCounter:
    def test_starts_at_zero(self):
        counter = WorkSpanCounter()
        assert counter.work == 0.0
        assert counter.span == 0.0

    def test_charge_with_explicit_span(self):
        counter = WorkSpanCounter()
        counter.charge(100, 5)
        assert counter.work == 100
        assert counter.span == 5

    def test_charge_without_span_is_sequential(self):
        counter = WorkSpanCounter()
        counter.charge(7)
        assert counter.span == 7

    def test_negative_work_rejected(self):
        counter = WorkSpanCounter()
        with pytest.raises(ValueError):
            counter.charge(-1, 1)

    def test_charges_accumulate(self):
        counter = WorkSpanCounter()
        counter.charge(10, 2)
        counter.charge(20, 3)
        assert counter.work == 30
        assert counter.span == 5

    def test_charge_parallel_uses_log_fanout(self):
        counter = WorkSpanCounter()
        counter.charge_parallel(1000, fanout=8)
        assert counter.work == 1000
        assert counter.span == ceil_log2(8) + 1.0

    def test_reset(self):
        counter = WorkSpanCounter()
        counter.charge(5, 5)
        counter.reset()
        assert counter.work == 0.0 and counter.span == 0.0

    def test_simulated_time_brents_bound(self):
        counter = WorkSpanCounter(work=1000, span=10)
        t = counter.simulated_time(10, scheduling_overhead=1.0, seconds_per_operation=1.0)
        assert t == pytest.approx(1000 / 10 + 10)

    def test_simulated_time_rejects_zero_workers(self):
        with pytest.raises(ValueError):
            WorkSpanCounter(1, 1).simulated_time(0)

    def test_speedup_bounded_by_workers_and_parallelism(self):
        counter = WorkSpanCounter(work=10_000, span=10)
        speedup = counter.speedup(16)
        assert 1.0 < speedup <= 16.0

    def test_speedup_of_sequential_work_is_small(self):
        # When span equals work the computation is fully sequential and the
        # speedup is capped at (W + S) / S = 2 regardless of the worker count.
        counter = WorkSpanCounter(work=100, span=100)
        assert counter.speedup(48) < 2.0

    def test_addition_composes_sequentially(self):
        combined = WorkSpanCounter(10, 4) + WorkSpanCounter(5, 3)
        assert combined.work == 15 and combined.span == 7

    def test_copy_is_independent(self):
        counter = WorkSpanCounter(1, 1)
        other = counter.copy()
        other.charge(5, 5)
        assert counter.work == 1

    def test_snapshot(self):
        counter = WorkSpanCounter(3, 2)
        assert counter.snapshot() == (3, 2)


class TestCostReport:
    def test_from_counter_records_fields(self):
        counter = WorkSpanCounter(100, 7)
        report = CostReport.from_counter("phase", counter, wall_seconds=1.5, note="x")
        assert report.label == "phase"
        assert report.work == 100
        assert report.span == 7
        assert report.wall_seconds == 1.5
        assert report.details["note"] == "x"

    def test_simulated_time_matches_counter(self):
        counter = WorkSpanCounter(1000, 10)
        report = CostReport.from_counter("phase", counter)
        assert report.simulated_time(4) == pytest.approx(counter.simulated_time(4))

    def test_more_workers_is_never_slower(self):
        report = CostReport("x", work=1e6, span=100)
        assert report.simulated_time(96) <= report.simulated_time(1)
