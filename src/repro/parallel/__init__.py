"""Parallel runtimes: simulated work-span accounting and real multicore execution.

This package is the substrate on which the paper's parallel algorithms are
expressed, in two complementary halves:

* the *simulated* fork-join runtime -- a
  :class:`~repro.parallel.scheduler.Scheduler` that executes fork-join
  computations sequentially and charges their work and span to a
  :class:`~repro.parallel.metrics.WorkSpanCounter`, together with the
  sorts, segmented array helpers and union-find the algorithms share -- the
  paper-facing cost model (the remaining primitives of the paper, such as
  reduce, filter and scan, are whole-array numpy steps charged inline);
* the *real* execution layer (:mod:`repro.parallel.execute`) -- a
  ``multiprocessing`` worker pool over shared-memory numpy columns that
  shards the construction hot spots for measured wall-clock scaling, with
  output bit-identical to serial execution at any worker count.
"""

from .metrics import CostReport, WorkSpanCounter, ceil_log2, ceil_log2_array
from .scheduler import PAPER_NUM_THREADS, Scheduler, sequential_scheduler
from .primitives import (
    segmented_arange,
    segmented_ranges,
    segmented_searchsorted,
)
from .sorting import (
    comparison_sort_permutation,
    integer_sort_permutation,
    pack_segment_keys,
    packed_argsort,
    radix_eligible,
    segmented_sort_by_key,
    similarity_rank_keys,
)
from .execute import (
    PARALLEL_FLOOR_ARCS,
    ParallelExecutor,
    executor_for,
    resolve_jobs,
    shared_memory_available,
)
from .unionfind import UnionFind

__all__ = [
    "CostReport",
    "WorkSpanCounter",
    "ceil_log2",
    "ceil_log2_array",
    "PAPER_NUM_THREADS",
    "Scheduler",
    "sequential_scheduler",
    "segmented_arange",
    "segmented_ranges",
    "segmented_searchsorted",
    "comparison_sort_permutation",
    "integer_sort_permutation",
    "pack_segment_keys",
    "packed_argsort",
    "radix_eligible",
    "PARALLEL_FLOOR_ARCS",
    "ParallelExecutor",
    "executor_for",
    "resolve_jobs",
    "shared_memory_available",
    "segmented_sort_by_key",
    "similarity_rank_keys",
    "UnionFind",
]
