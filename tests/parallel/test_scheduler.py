"""Tests for the fork-join scheduler's execution and span semantics."""

import pytest

from repro.parallel import Scheduler, sequential_scheduler


class TestConstruction:
    def test_default_worker_count_matches_paper_machine(self):
        assert Scheduler().num_workers == 96

    def test_rejects_non_positive_workers(self):
        with pytest.raises(ValueError):
            Scheduler(0)

    def test_sequential_scheduler_has_one_worker(self):
        assert sequential_scheduler().num_workers == 1


class TestParallelFor:
    def test_executes_every_iteration_in_order_observable(self):
        scheduler = Scheduler()
        seen = []
        scheduler.parallel_for(5, seen.append)
        assert sorted(seen) == [0, 1, 2, 3, 4]

    def test_zero_iterations_charges_nothing(self):
        scheduler = Scheduler()
        scheduler.parallel_for(0, lambda i: None)
        assert scheduler.counter.work == 0

    def test_span_is_max_iteration_not_sum(self):
        scheduler = Scheduler()

        def body(i):
            scheduler.charge(10, 10 if i == 3 else 1)

        scheduler.parallel_for(8, body)
        # Span: heaviest iteration (10) + fork tree depth (log2(8)=3) + 1.
        assert scheduler.counter.span == pytest.approx(10 + 3 + 1)

    def test_work_is_sum_of_iterations(self):
        scheduler = Scheduler()
        scheduler.parallel_for(4, lambda i: scheduler.charge(5, 1))
        assert scheduler.counter.work == pytest.approx(4 * 5 + 4)

    def test_nested_parallel_for_composes_spans(self):
        scheduler = Scheduler()

        def outer(i):
            scheduler.parallel_for(4, lambda j: scheduler.charge(1, 1))

        scheduler.parallel_for(4, outer)
        # Inner loop span: 1 + log2(4) + 1 = 4; outer adds log2(4) + 1 = 3.
        assert scheduler.counter.span == pytest.approx(4 + 3)


class TestTiming:
    def test_simulated_time_uses_own_worker_count_by_default(self):
        scheduler = Scheduler(10)
        scheduler.charge(1000, 10)
        assert scheduler.simulated_time() == pytest.approx(
            scheduler.counter.simulated_time(10)
        )

    def test_simulated_time_override(self):
        scheduler = Scheduler(10)
        scheduler.charge(1000, 1)
        assert scheduler.simulated_time(1) > scheduler.simulated_time(10)

    def test_reset_zeroes_counter(self):
        scheduler = Scheduler()
        scheduler.charge(10, 10)
        scheduler.reset()
        assert scheduler.counter.work == 0
