"""Fork-join scheduler with work-span accounting.

The :class:`Scheduler` is the entry point of the simulated parallel runtime.
Algorithms written against it look like the pseudocode in the paper --
``parallel_for`` loops and nested parallelism -- and every construct charges
work and span to the scheduler's
:class:`~repro.parallel.metrics.WorkSpanCounter`.

Execution itself is sequential (CPython's GIL makes genuine shared-memory
parallelism for this workload impossible without C extensions), but the span
accounting is exact for the executed computation: a ``parallel_for`` charges
the *maximum* span of its iterations plus the depth of the fork tree, not the
sum, and nesting composes correctly because charges of inner primitives are
captured per iteration and re-aggregated.
"""

from __future__ import annotations

from typing import Callable

from .metrics import WorkSpanCounter, ceil_log2

#: Number of hyper-threads on the machine used in the paper's evaluation
#: (48 cores with two-way hyper-threading).
PAPER_NUM_THREADS = 96


class Scheduler:
    """Sequentially executed fork-join runtime with exact work-span charges.

    Parameters
    ----------
    num_workers:
        The number of simulated processors; used by :meth:`simulated_time`
        and recorded in reports, it does not change how code executes.
    counter:
        Optional externally owned counter.  By default the scheduler owns a
        fresh :class:`WorkSpanCounter`.
    """

    def __init__(
        self,
        num_workers: int = PAPER_NUM_THREADS,
        counter: WorkSpanCounter | None = None,
    ) -> None:
        if num_workers < 1:
            raise ValueError(f"num_workers must be >= 1, got {num_workers}")
        self.num_workers = num_workers
        self.counter = counter if counter is not None else WorkSpanCounter()

    # ------------------------------------------------------------------
    # Charging helpers
    # ------------------------------------------------------------------
    def charge(self, work: float, span: float | None = None) -> None:
        """Charge raw work/span directly (for vectorised leaf operations)."""
        self.counter.charge(work, span)

    def charge_parallel(self, work: float, fanout: int) -> None:
        """Charge a flat data-parallel step of ``work`` ops over ``fanout`` tasks."""
        self.counter.charge_parallel(work, fanout)

    # ------------------------------------------------------------------
    # Fork-join constructs
    # ------------------------------------------------------------------
    def parallel_for(
        self,
        n: int,
        body: Callable[[int], None],
        *,
        work_per_iteration: float = 1.0,
    ) -> None:
        """Run ``body(i)`` for ``i in range(n)`` as a parallel loop.

        Work is the sum of the iterations' charges plus ``work_per_iteration``
        bookkeeping per iteration; span is the maximum iteration span plus the
        depth of the balanced fork tree over ``n`` tasks.
        """
        if n <= 0:
            return
        counter = self.counter
        span_before = counter.span
        max_iteration_span = 0.0
        for i in range(n):
            iteration_start = counter.span
            body(i)
            iteration_span = counter.span - iteration_start
            if iteration_span > max_iteration_span:
                max_iteration_span = iteration_span
            counter.span = iteration_start
        counter.work += n * work_per_iteration
        counter.span = span_before + max_iteration_span + ceil_log2(n) + 1.0

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def simulated_time(self, num_workers: int | None = None, **kwargs) -> float:
        """Simulated running time of everything charged so far (seconds)."""
        workers = self.num_workers if num_workers is None else num_workers
        return self.counter.simulated_time(workers, **kwargs)

    def reset(self) -> None:
        """Zero the underlying counter (e.g. between benchmark phases)."""
        self.counter.reset()


def sequential_scheduler() -> Scheduler:
    """A scheduler configured with a single worker (sequential baseline)."""
    return Scheduler(num_workers=1)
