"""Experiment drivers: one function per table / figure of the paper's evaluation.

Every driver returns an :class:`ExperimentResult` whose rows mirror the data
points of the corresponding plot or table.  Absolute numbers differ from the
paper (the substrate is a simulated work-span runtime on synthetic stand-in
graphs, not a 48-core machine on billion-edge graphs), but the *shape* of
each result -- which variant wins, by roughly what factor, how curves move
with the parameters -- is what the reproduction checks and what
``EXPERIMENTS.md`` records.

Figure/table inventory:

* :func:`table1_work_scaling`   -- empirical check of the construction work bounds
* :func:`table2_datasets`       -- dataset summary
* :func:`figure5_index_construction` -- exact index construction times
* :func:`figure6_query_vs_epsilon`   -- query times, μ = 5, varying ε
* :func:`figure7_query_vs_mu`        -- query times, ε = 0.6, varying μ
* :func:`figure8_approx_construction` -- LSH index construction vs sample count
* :func:`figure9_modularity_tradeoff` -- construction time vs best modularity
* :func:`figure10_ari_tradeoff`       -- construction time vs ARI against exact
* :func:`sweep_throughput`            -- batched vs per-pair parameter sweeps
  (not a paper figure; tracks the repo's own multi-query planner)
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from ..baselines.gs_index import GsStarIndex
from ..core.index import ScanIndex
from ..graphs.generators import planted_partition
from ..graphs.properties import arboricity_upper_bound
from ..lsh.approximate import ApproximationConfig
from ..parallel.scheduler import Scheduler
from ..quality.ari import adjusted_rand_index
from ..quality.modularity import modularity
from ..quality.sweep import epsilon_grid, modularity_sweep, mu_grid
from .datasets import DATASETS, UNWEIGHTED_DATASETS, dataset_summaries, load_dataset
from .harness import (
    PARALLEL_WORKERS,
    ROW_HEADERS,
    VARIANT_GS_INDEX,
    VARIANT_PARALLEL,
    VARIANT_SEQUENTIAL,
    MeasurementRow,
    measure,
    measure_index_construction,
    measure_query,
)
from .reporting import format_table

#: Datasets used by default in every experiment (all six stand-ins).
DEFAULT_DATASETS = tuple(DATASETS)
#: ε values of Figure 6.
FIGURE6_EPSILONS = tuple(round(0.1 * i, 2) for i in range(1, 10))
#: μ used by Figure 6.
FIGURE6_MU = 5
#: ε used by Figure 7.
FIGURE7_EPSILON = 0.6
#: Sample counts used by Figures 8-10 (scaled down from the paper's 2^5..2^15).
DEFAULT_SAMPLE_COUNTS = (16, 32, 64, 128, 256)


@dataclass
class ExperimentResult:
    """Rows of one reproduced table or figure plus a formatted report."""

    experiment: str
    headers: list[str]
    rows: list[list]
    notes: str = ""
    extras: dict = field(default_factory=dict)

    def report(self) -> str:
        """Human-readable rendering of the result."""
        body = format_table(self.headers, self.rows)
        if self.notes:
            return f"== {self.experiment} ==\n{self.notes}\n{body}"
        return f"== {self.experiment} ==\n{body}"


# ----------------------------------------------------------------------
# Table 1: construction work scaling
# ----------------------------------------------------------------------
def table1_work_scaling(
    *,
    sizes: tuple[int, ...] = (40, 80, 160, 320),
    cluster_size: int = 25,
    num_samples: int = 32,
    seed: int = 0,
) -> ExperimentResult:
    """Empirical check of the index-construction work bounds of Table 1.

    For a family of planted-partition graphs of growing size the measured
    construction work is divided by the bound predicted by Table 1
    (``(α + log n) m`` for the exact index, ``(k + log log n) m`` for the
    approximate index).  The ratios should stay roughly flat as the graph
    grows, showing the implementation tracks the claimed bounds.
    """
    rows: list[list] = []
    for num_clusters in sizes:
        graph = planted_partition(
            num_clusters, cluster_size, p_intra=0.3, p_inter=0.005, seed=seed
        )
        n, m = graph.num_vertices, graph.num_edges
        alpha = arboricity_upper_bound(graph)
        log_n = math.log2(max(n, 2))

        scheduler = Scheduler(PARALLEL_WORKERS)
        ScanIndex.build(graph, measure="cosine", scheduler=scheduler)
        exact_work = scheduler.counter.work
        exact_bound = (alpha + log_n) * m

        scheduler = Scheduler(PARALLEL_WORKERS)
        ScanIndex.build(
            graph,
            approximate=ApproximationConfig(measure="cosine", num_samples=num_samples),
            scheduler=scheduler,
        )
        approx_work = scheduler.counter.work
        approx_bound = (num_samples + math.log2(max(log_n, 2))) * m

        rows.append(
            [
                n,
                m,
                alpha,
                exact_work,
                exact_work / exact_bound,
                approx_work,
                approx_work / approx_bound,
            ]
        )
    headers = [
        "n",
        "m",
        "arboricity<=",
        "exact_work",
        "exact_work/(a+log n)m",
        "approx_work",
        "approx_work/(k+loglog n)m",
    ]
    notes = (
        "Work ratios against the Table 1 bounds should stay roughly constant "
        "as the graph grows."
    )
    return ExperimentResult("Table 1: construction work scaling", headers, rows, notes)


# ----------------------------------------------------------------------
# Table 2: dataset summary
# ----------------------------------------------------------------------
def table2_datasets(scale: str = "bench") -> ExperimentResult:
    """Summary of the stand-in datasets next to the originals they model."""
    rows = []
    for summary in dataset_summaries(scale):
        spec = DATASETS[summary.name]
        rows.append(
            [
                summary.name,
                spec.paper_name,
                summary.num_vertices,
                summary.num_edges,
                "weighted" if summary.weighted else "unweighted",
                summary.max_degree,
                round(summary.average_degree, 1),
                summary.degeneracy,
            ]
        )
    headers = [
        "dataset",
        "stands in for",
        "vertices",
        "edges",
        "type",
        "max deg",
        "avg deg",
        "degeneracy",
    ]
    return ExperimentResult("Table 2: datasets", headers, rows)


# ----------------------------------------------------------------------
# Figure 5: exact index construction times
# ----------------------------------------------------------------------
def figure5_index_construction(
    datasets: tuple[str, ...] = DEFAULT_DATASETS,
    scale: str = "bench",
) -> ExperimentResult:
    """Index construction times with exact cosine similarity (Figure 5)."""
    rows: list[list] = []
    all_rows: list[MeasurementRow] = []
    for name in datasets:
        graph = load_dataset(name, scale)
        measured = measure_index_construction(name, graph, measure_name="cosine")
        all_rows.extend(measured)
        rows.extend(row.as_row() for row in measured)

    # Headline speedups matching the paper's summary numbers.
    speedups = []
    for name in datasets:
        dataset_rows = [row for row in all_rows if row.dataset == name]
        by_variant = {row.variant: row for row in dataset_rows}
        if VARIANT_GS_INDEX in by_variant:
            ratio = (
                by_variant[VARIANT_GS_INDEX].simulated_seconds
                / max(by_variant[VARIANT_PARALLEL].simulated_seconds, 1e-12)
            )
            speedups.append(f"{name}: {ratio:.0f}x over GS*-Index")
    notes = "Parallel-vs-GS*-Index construction speedups -- " + "; ".join(speedups)
    return ExperimentResult(
        "Figure 5: index construction time (exact cosine)",
        ROW_HEADERS,
        rows,
        notes,
        extras={"measurements": all_rows},
    )


# ----------------------------------------------------------------------
# Figures 6 and 7: query times
# ----------------------------------------------------------------------
def _query_experiment(
    datasets: tuple[str, ...],
    scale: str,
    settings: list[tuple[int, float]] | None,
    vary: str,
) -> ExperimentResult:
    rows: list[list] = []
    all_rows: list[MeasurementRow] = []
    headers = ["dataset", "mu", "epsilon", "variant", "simulated_s", "wall_s"]
    for name in datasets:
        graph = load_dataset(name, scale)
        spec = DATASETS[name]
        index = ScanIndex.build(graph, measure="cosine")
        # As in the paper, GS*-Index and ppSCAN are only run on unweighted graphs.
        gs_index = None if spec.weighted else GsStarIndex.build(graph, measure="cosine")
        include_ppscan = not spec.weighted

        if settings is None:
            if vary == "epsilon":
                dataset_settings = [(FIGURE6_MU, eps) for eps in FIGURE6_EPSILONS]
            else:
                max_mu = graph.max_degree + 1
                mus = [2 ** i for i in range(1, 15) if 2 ** i <= max_mu]
                dataset_settings = [(mu, FIGURE7_EPSILON) for mu in mus]
        else:
            dataset_settings = settings

        for mu, epsilon in dataset_settings:
            measured = measure_query(
                name, graph, index, gs_index, mu, epsilon, include_ppscan=include_ppscan
            )
            all_rows.extend(measured)
            for row in measured:
                rows.append(
                    [name, mu, epsilon, row.variant, row.simulated_seconds, row.wall_seconds]
                )
    title = (
        "Figure 6: query time vs epsilon (mu=5)"
        if vary == "epsilon"
        else "Figure 7: query time vs mu (epsilon=0.6)"
    )
    return ExperimentResult(title, headers, rows, extras={"measurements": all_rows})


def figure6_query_vs_epsilon(
    datasets: tuple[str, ...] = DEFAULT_DATASETS,
    scale: str = "bench",
    epsilons: tuple[float, ...] | None = None,
) -> ExperimentResult:
    """Clustering query times with μ=5 and varying ε (Figure 6)."""
    settings = None if epsilons is None else [(FIGURE6_MU, eps) for eps in epsilons]
    return _query_experiment(datasets, scale, settings, vary="epsilon")


def figure7_query_vs_mu(
    datasets: tuple[str, ...] = DEFAULT_DATASETS,
    scale: str = "bench",
    mus: tuple[int, ...] | None = None,
) -> ExperimentResult:
    """Clustering query times with ε=0.6 and varying μ (Figure 7)."""
    settings = None if mus is None else [(mu, FIGURE7_EPSILON) for mu in mus]
    return _query_experiment(datasets, scale, settings, vary="mu")


# ----------------------------------------------------------------------
# Figure 8: approximate index construction times
# ----------------------------------------------------------------------
def figure8_approx_construction(
    datasets: tuple[str, ...] = DEFAULT_DATASETS,
    scale: str = "bench",
    sample_counts: tuple[int, ...] = DEFAULT_SAMPLE_COUNTS,
    seed: int = 0,
) -> ExperimentResult:
    """Approximate index construction time vs number of samples (Figure 8)."""
    headers = ["dataset", "similarity", "samples", "simulated_s", "wall_s", "work"]
    rows: list[list] = []
    for name in datasets:
        graph = load_dataset(name, scale)
        spec = DATASETS[name]

        exact = measure(
            name,
            "exact cosine",
            PARALLEL_WORKERS,
            lambda scheduler: ScanIndex.build(graph, measure="cosine", scheduler=scheduler),
        )
        rows.append([name, "exact cosine", "-", exact.simulated_seconds,
                     exact.wall_seconds, exact.work])

        measures = ["cosine"] if spec.weighted else ["cosine", "jaccard"]
        for measure_name in measures:
            for samples in sample_counts:
                config = ApproximationConfig(
                    measure=measure_name, num_samples=samples, seed=seed
                )
                approx = measure(
                    name,
                    f"approx {measure_name}",
                    PARALLEL_WORKERS,
                    lambda scheduler, config=config: ScanIndex.build(
                        graph, measure=measure_name, approximate=config, scheduler=scheduler
                    ),
                )
                rows.append(
                    [name, f"approx {measure_name}", samples,
                     approx.simulated_seconds, approx.wall_seconds, approx.work]
                )
    notes = (
        "Approximate Jaccard (k-partition MinHash) should be consistently cheaper than "
        "approximate cosine (SimHash) at equal sample counts; both flatten once the "
        "low-degree heuristic reverts most vertices to exact computation."
    )
    return ExperimentResult(
        "Figure 8: approximate index construction time vs samples", headers, rows, notes
    )


# ----------------------------------------------------------------------
# Figures 9 and 10: quality/time trade-offs
# ----------------------------------------------------------------------
def figure9_modularity_tradeoff(
    datasets: tuple[str, ...] = DEFAULT_DATASETS,
    scale: str = "bench",
    sample_counts: tuple[int, ...] = (16, 64, 256),
    num_trials: int = 2,
    epsilon_step: float = 0.05,
) -> ExperimentResult:
    """Best modularity found over the grid Σ vs index construction time (Figure 9)."""
    headers = [
        "dataset", "similarity", "samples", "construction_simulated_s", "best_modularity",
        "best_mu", "best_epsilon",
    ]
    rows: list[list] = []
    for name in datasets:
        graph = load_dataset(name, scale)
        spec = DATASETS[name]
        measures = ["cosine"] if spec.weighted else ["cosine", "jaccard"]

        for measure_name in measures:
            exact_row = measure(
                name,
                f"exact {measure_name}",
                PARALLEL_WORKERS,
                lambda scheduler, m=measure_name: ScanIndex.build(
                    graph, measure=m, scheduler=scheduler
                ),
            )
            exact_index: ScanIndex = exact_row.details["result"]
            sweep = modularity_sweep(exact_index, epsilon_step=epsilon_step)
            best = sweep.best
            rows.append(
                [name, f"exact {measure_name}", "-", exact_row.simulated_seconds,
                 best.modularity, best.mu, best.epsilon]
            )

            for samples in sample_counts:
                scores, times, best_mus, best_epsilons = [], [], [], []
                for trial in range(num_trials):
                    config = ApproximationConfig(
                        measure=measure_name, num_samples=samples, seed=trial
                    )
                    approx_row = measure(
                        name,
                        f"approx {measure_name}",
                        PARALLEL_WORKERS,
                        lambda scheduler, c=config, m=measure_name: ScanIndex.build(
                            graph, measure=m, approximate=c, scheduler=scheduler
                        ),
                    )
                    approx_index: ScanIndex = approx_row.details["result"]
                    approx_sweep = modularity_sweep(approx_index, epsilon_step=epsilon_step)
                    approx_best = approx_sweep.best
                    scores.append(approx_best.modularity)
                    times.append(approx_row.simulated_seconds)
                    best_mus.append(approx_best.mu)
                    best_epsilons.append(approx_best.epsilon)
                rows.append(
                    [name, f"approx {measure_name}", samples, float(np.mean(times)),
                     float(np.mean(scores)), best_mus[0], best_epsilons[0]]
                )
    notes = (
        "The best modularity reachable with approximate similarities should approach the "
        "exact value as the sample count grows, at a fraction of the construction time "
        "on the dense graphs."
    )
    return ExperimentResult(
        "Figure 9: modularity vs approximate construction time", headers, rows, notes
    )


def figure10_ari_tradeoff(
    datasets: tuple[str, ...] = DEFAULT_DATASETS,
    scale: str = "bench",
    sample_counts: tuple[int, ...] = (16, 64, 256),
    num_trials: int = 2,
    epsilon_step: float = 0.05,
) -> ExperimentResult:
    """ARI of approximate clusterings against the exact clustering (Figure 10).

    For each dataset the modularity-maximising parameters of the *exact*
    index define the ground-truth clustering; the approximate index's
    clustering at the same parameters is compared against it with the ARI.
    """
    headers = [
        "dataset", "similarity", "samples", "construction_simulated_s", "ari", "mu", "epsilon",
    ]
    rows: list[list] = []
    for name in datasets:
        graph = load_dataset(name, scale)
        spec = DATASETS[name]
        measures = ["cosine"] if spec.weighted else ["cosine", "jaccard"]
        for measure_name in measures:
            exact_index = ScanIndex.build(graph, measure=measure_name)
            sweep = modularity_sweep(exact_index, epsilon_step=epsilon_step)
            best_mu, best_epsilon = sweep.best_parameters()
            ground_truth = exact_index.query(best_mu, best_epsilon)
            rows.append([name, f"exact {measure_name}", "-", 0.0, 1.0, best_mu, best_epsilon])

            for samples in sample_counts:
                scores, times = [], []
                for trial in range(num_trials):
                    config = ApproximationConfig(
                        measure=measure_name, num_samples=samples, seed=trial
                    )
                    approx_row = measure(
                        name,
                        f"approx {measure_name}",
                        PARALLEL_WORKERS,
                        lambda scheduler, c=config, m=measure_name: ScanIndex.build(
                            graph, measure=m, approximate=c, scheduler=scheduler
                        ),
                    )
                    approx_index: ScanIndex = approx_row.details["result"]
                    approx_clustering = approx_index.query(best_mu, best_epsilon)
                    scores.append(adjusted_rand_index(approx_clustering, ground_truth))
                    times.append(approx_row.simulated_seconds)
                rows.append(
                    [name, f"approx {measure_name}", samples, float(np.mean(times)),
                     float(np.mean(scores)), best_mu, best_epsilon]
                )
    notes = (
        "ARI against the exact clustering at the exact index's best parameters should "
        "increase toward 1 with the sample count."
    )
    return ExperimentResult(
        "Figure 10: ARI vs approximate construction time", headers, rows, notes
    )


# ----------------------------------------------------------------------
# Sweep throughput: the batched multi-(μ, ε) planner vs per-pair queries
# ----------------------------------------------------------------------
def sweep_throughput(
    datasets: tuple[str, ...] = DEFAULT_DATASETS,
    scale: str = "bench",
    epsilon_step: float = 0.05,
) -> ExperimentResult:
    """Batched parameter sweeps against one-query-at-a-time execution.

    For every dataset the full (clipped) grid Σ is answered twice -- once
    through :meth:`ScanIndex.query_many` and once as individual
    :meth:`ScanIndex.query` calls -- and both the charged work and the wall
    clock are compared.  The batched planner shares the core-prefix doubling
    search across all settings and walks each μ's settings as one chain in
    descending ε, gathering and unioning each arc once per μ, so its
    advantage grows with the density of the ε grid.
    """
    headers = [
        "dataset", "settings", "batched_s", "per_pair_s", "wall_speedup",
        "batched_work", "per_pair_work", "work_ratio",
    ]
    rows: list[list] = []
    for name in datasets:
        graph = load_dataset(name, scale)
        index = ScanIndex.build(graph, measure="cosine")
        pairs = [
            (mu, float(eps))
            for mu in mu_grid(graph.max_degree + 1)
            for eps in epsilon_grid(epsilon_step)
        ]

        batch_scheduler = Scheduler(PARALLEL_WORKERS)
        started = time.perf_counter()
        index.query_many(pairs, scheduler=batch_scheduler)
        batched_wall = time.perf_counter() - started

        single_scheduler = Scheduler(PARALLEL_WORKERS)
        started = time.perf_counter()
        for mu, epsilon in pairs:
            index.query(mu, epsilon, scheduler=single_scheduler)
        per_pair_wall = time.perf_counter() - started

        rows.append(
            [
                name,
                len(pairs),
                batched_wall,
                per_pair_wall,
                per_pair_wall / max(batched_wall, 1e-12),
                batch_scheduler.counter.work,
                single_scheduler.counter.work,
                single_scheduler.counter.work / max(batch_scheduler.counter.work, 1e-12),
            ]
        )
    notes = (
        "query_many answers the whole grid in one planned batch; work_ratio > 1 "
        "is the index-probe redundancy the planner removes."
    )
    return ExperimentResult("Sweep throughput: batched multi-(mu, eps) queries",
                            headers, rows, notes)


#: Registry used by the command-line entry point and the benchmarks.
ALL_EXPERIMENTS = {
    "table1": table1_work_scaling,
    "table2": table2_datasets,
    "figure5": figure5_index_construction,
    "figure6": figure6_query_vs_epsilon,
    "figure7": figure7_query_vs_mu,
    "figure8": figure8_approx_construction,
    "figure9": figure9_modularity_tradeoff,
    "figure10": figure10_ari_tradeoff,
    "sweep": sweep_throughput,
}
