"""Ablation: similarity backends and sorting strategies for index construction.

Not a figure of the paper, but it quantifies the two design choices the paper
discusses in Sections 4.1.2 and 6.1:

* the vectorised batch engine vs merge-based similarity on the
  degree-oriented graph vs the hash-join of Algorithm 1 vs dense matrix
  multiplication;
* integer sort vs comparison sort for building the neighbor/core orders.

Run standalone to print both work tables::

    PYTHONPATH=src python benchmarks/bench_ablation_backends.py
"""

from repro import ScanIndex
from repro.bench import PARALLEL_WORKERS, format_table, load_dataset
from repro.parallel import Scheduler


def _build_work(graph, **kwargs) -> float:
    scheduler = Scheduler(PARALLEL_WORKERS)
    ScanIndex.build(graph, scheduler=scheduler, **kwargs)
    return scheduler.counter.work


def similarity_backend_work() -> dict:
    """Construction work charged by every exact similarity backend."""
    graph = load_dataset("cochlea-like", "bench")
    return {
        "batch": _build_work(graph, backend="batch"),
        "merge": _build_work(graph, backend="merge"),
        "hash": _build_work(graph, backend="hash"),
        "matmul": _build_work(graph, backend="matmul"),
    }


def sorting_strategy_work() -> dict:
    """Construction work of integer vs comparison order sorts."""
    graph = load_dataset("orkut-like", "bench")
    return {
        "integer_sort": _build_work(graph, use_integer_sort=True),
        "comparison_sort": _build_work(graph, use_integer_sort=False),
    }


def test_ablation_similarity_backends(benchmark, once):
    work = once(benchmark, similarity_backend_work)
    print()
    print(format_table(["backend", "construction work"], sorted(work.items())))
    # The degree-oriented merge shares triangle work across edges, so it never
    # does more work than the per-edge hash join.
    assert work["merge"] <= work["hash"]
    # The batch engine is the merge strategy executed array-at-once, so it
    # charges exactly the merge engine's work.
    assert work["batch"] == work["merge"]


def test_ablation_sorting_strategy(benchmark, once):
    work = once(benchmark, sorting_strategy_work)
    print()
    print(format_table(["sorting", "construction work"], sorted(work.items())))
    # Integer sorting the quantised similarity scores shaves the log n factor.
    assert work["integer_sort"] < work["comparison_sort"]


if __name__ == "__main__":
    print(format_table(
        ["backend", "construction work"], sorted(similarity_backend_work().items())
    ))
    print(format_table(
        ["sorting", "construction work"], sorted(sorting_strategy_work().items())
    ))
