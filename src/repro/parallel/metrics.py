"""Work-span cost accounting for the simulated fork-join runtime.

The paper analyses algorithms in the work-span model: *work* is the total
number of operations executed and *span* (also called depth or parallel time)
is the length of the longest chain of sequentially dependent operations.  A
work-stealing scheduler runs a computation with work ``W`` and span ``S`` on
``P`` processors in ``W / P + O(S)`` expected time (Brent's bound / the
Blumofe-Leiserson scheduling theorem).

Because CPython's global interpreter lock prevents genuine shared-memory
parallelism for this kind of pointer-heavy graph code, this package *models*
parallel execution instead of timing it: every parallel primitive charges work
and span to a :class:`WorkSpanCounter`, and benchmarks convert the counters to
simulated running times via :meth:`WorkSpanCounter.simulated_time`.  Relative
comparisons between algorithms (who wins, by roughly what factor, where the
crossovers fall) are therefore preserved even though absolute wall-clock
numbers differ from the paper's 48-core C++ measurements.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


def ceil_log2(n: int) -> float:
    """Return ``ceil(log2(n))`` for ``n >= 1`` and ``0`` for smaller inputs.

    Used to charge the depth of a balanced fork-join tree over ``n`` tasks.
    """
    if n <= 1:
        return 0.0
    return float(math.ceil(math.log2(n)))


def ceil_log2_array(values: np.ndarray) -> np.ndarray:
    """Elementwise :func:`ceil_log2` over an integer array, as float64.

    Used by the vectorised engines to charge per-segment fork-tree depths in
    one array pass.  Exact for inputs below ``2**53`` (``np.frexp`` decomposes
    ``x = m * 2**e`` with ``0.5 <= m < 1``, so ``ceil_log2(x)`` is ``e - 1``
    for exact powers of two and ``e`` otherwise), unlike a naive
    ``np.ceil(np.log2(x))`` which can be off by one at power-of-two inputs.
    """
    values = np.asarray(values)
    mantissa, exponent = np.frexp(np.maximum(values, 1).astype(np.float64))
    return np.where(mantissa == 0.5, exponent - 1, exponent).astype(np.float64)


@dataclass
class WorkSpanCounter:
    """Accumulator of work and span charges for one logical computation.

    Attributes
    ----------
    work:
        Total number of (abstract, unit-cost) operations charged so far.
    span:
        Length of the longest sequential dependence chain charged so far.
    """

    work: float = 0.0
    span: float = 0.0

    def charge(self, work: float, span: float | None = None) -> None:
        """Charge ``work`` operations with a critical path of ``span``.

        If ``span`` is omitted the charge is treated as fully sequential,
        i.e. the span equals the work.
        """
        if work < 0:
            raise ValueError(f"work must be non-negative, got {work}")
        self.work += work
        self.span += work if span is None else span

    def charge_parallel(self, work: float, fanout: int) -> None:
        """Charge a flat data-parallel step over ``fanout`` independent tasks.

        The step costs ``work`` total operations and a span of the fork-join
        tree depth plus a constant per level.
        """
        self.charge(work, ceil_log2(max(fanout, 1)) + 1.0)

    def snapshot(self) -> tuple[float, float]:
        """Return the current ``(work, span)`` pair."""
        return (self.work, self.span)

    def reset(self) -> None:
        """Zero both counters."""
        self.work = 0.0
        self.span = 0.0

    def simulated_time(
        self,
        num_workers: int,
        *,
        scheduling_overhead: float = 1.0,
        seconds_per_operation: float = 1e-8,
    ) -> float:
        """Simulated running time on ``num_workers`` processors, in seconds.

        The estimate is Brent's bound ``W / P + c * S`` scaled by a nominal
        per-operation cost.  ``seconds_per_operation`` defaults to 10 ns,
        roughly one simple operation on a modern core; the constant only
        affects absolute numbers, never the relative comparisons reported in
        the benchmarks.
        """
        if num_workers < 1:
            raise ValueError(f"num_workers must be >= 1, got {num_workers}")
        abstract = self.work / num_workers + scheduling_overhead * self.span
        return abstract * seconds_per_operation

    def speedup(self, num_workers: int, **kwargs) -> float:
        """Simulated self-relative speedup of ``num_workers`` over one worker."""
        sequential = self.simulated_time(1, **kwargs)
        parallel = self.simulated_time(num_workers, **kwargs)
        if parallel == 0:
            return 1.0
        return sequential / parallel

    def copy(self) -> "WorkSpanCounter":
        """Return an independent copy of this counter."""
        return WorkSpanCounter(work=self.work, span=self.span)

    def __add__(self, other: "WorkSpanCounter") -> "WorkSpanCounter":
        """Sequential composition: works and spans both add."""
        return WorkSpanCounter(self.work + other.work, self.span + other.span)


@dataclass
class CostReport:
    """A labelled, immutable record of one measured computation.

    Benchmarks collect these to build the rows of the paper's tables.
    """

    label: str
    work: float
    span: float
    wall_seconds: float = 0.0
    details: dict = field(default_factory=dict)

    @classmethod
    def from_counter(
        cls,
        label: str,
        counter: WorkSpanCounter,
        wall_seconds: float = 0.0,
        **details,
    ) -> "CostReport":
        """Build a report from a counter plus optional measured wall time."""
        return cls(
            label=label,
            work=counter.work,
            span=counter.span,
            wall_seconds=wall_seconds,
            details=dict(details),
        )

    def simulated_time(self, num_workers: int, **kwargs) -> float:
        """Simulated time on ``num_workers`` processors (see WorkSpanCounter)."""
        counter = WorkSpanCounter(work=self.work, span=self.span)
        return counter.simulated_time(num_workers, **kwargs)
