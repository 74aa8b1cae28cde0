"""Batched multi-parameter query planner: many ``(μ, ε)`` clusterings at once.

Parameter exploration -- the workload the index exists for -- queries the same
index dozens of times over a grid of ``(μ, ε)`` settings.  Issued one by one,
every query repeats the same three index probes: the doubling search locating
the core prefix of ``CO[μ]``, the doubling searches locating each core's
ε-similar prefix of ``NO``, and the gather materialising those prefixes.  This
planner executes a whole batch with the redundancy removed:

1. *one* batched doubling search (:func:`~repro.core.doubling.
   prefix_lengths_at_least`) finds the core prefix of every pair
   simultaneously;
2. pairs are grouped by distinct ε.  Within a group the core sets are nested
   (``cores(μ', ε) ⊆ cores(μ, ε)`` for ``μ' ≥ μ``), so the group's ε-similar
   arcs are gathered *once* for the smallest μ -- one shared doubling search
   across all groups locates every prefix, then one segmented gather per
   distinct ε materialises it;
3. the pairs of a group run in *descending* μ order over one shared
   union-find forest: descending μ only ever adds cores, so each step unions
   just the newly eligible core-core arcs and reads the labels off the grown
   forest.  Every arc of the group is unioned exactly once, instead of once
   per pair -- union-find is what dominates a query, so this is where the
   sweep's asymptotic saving comes from.  Border attachment stays per pair
   (different core sets assign different borders) and is the single-query
   tail itself, :func:`~repro.core.query.compact_answer`.

Each pair's answer is a :class:`~repro.core.query.CompactClustering`,
bit-for-bit identical to a per-pair :func:`~repro.core.query.cluster_compact`
call.  Labels are union-find representatives (the minimum vertex id of each
component under min-hooking, regardless of union order) and the
deterministic border rule is arc-order-independent; for the arbitrary
first-writer rule the pair's border arcs are first restored to its own
traversal order (cores in ``CO[μ]``-prefix order, neighbor order within a
core) so the same writers win.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from ..graphs.graph import gather_ids
from ..parallel.metrics import ceil_log2
from ..parallel.primitives import segmented_ranges
from ..parallel.scheduler import Scheduler
from ..parallel.unionfind import UnionFind
from .doubling import prefix_lengths_at_least
from .query import NO_CORES, CompactClustering, check_setting, compact_answer


def _validate_pairs(
    pairs: Sequence[tuple[int, float]], max_mu: int
) -> tuple[np.ndarray, np.ndarray]:
    """Range-check a sequence of ``(mu, epsilon)`` pairs and split it.

    Returns the μ values as int64 with every μ above ``max_mu`` clipped to
    ``max_mu + 1`` (all of them select no cores, and μ ≥ 2**63 would not
    fit the cast), and the ε values.
    """
    for mu, epsilon in pairs:
        check_setting(int(mu), float(epsilon))
    mus = np.array([min(int(mu), max_mu + 1) for mu, _ in pairs], dtype=np.int64)
    epsilons = np.array([float(epsilon) for _, epsilon in pairs], dtype=np.float64)
    return mus, epsilons


def query_many(
    neighbor_order,
    core_order,
    pairs: Iterable[tuple[int, float]],
    *,
    scheduler: Scheduler | None = None,
    deterministic_borders: bool = False,
) -> list[CompactClustering]:
    """SCAN clusterings for every ``(mu, epsilon)`` pair, planned as one batch.

    Returns one :class:`~repro.core.query.CompactClustering` per input pair,
    in input order, each identical to what a separate
    :func:`~repro.core.query.cluster_compact` call would produce (every
    setting without cores shares :data:`~repro.core.query.NO_CORES`).
    """
    pairs = list(pairs)
    if not pairs:
        return []
    scheduler = scheduler if scheduler is not None else Scheduler()
    max_mu = core_order.max_mu
    mus, epsilons = _validate_pairs(pairs, max_mu)
    num_pairs = int(mus.size)

    # --- Stage 1: core prefixes of all pairs, one batched doubling search.
    co_indptr = core_order.indptr
    in_range = mus <= max_mu          # mus >= 2 already enforced
    clipped = np.where(in_range, mus, 0)    # index 0/1 exist even when empty
    core_starts = co_indptr[clipped]
    core_lengths = np.where(in_range, co_indptr[clipped + 1] - core_starts, 0)
    core_counts = prefix_lengths_at_least(
        core_order.thresholds, epsilons, core_starts, core_lengths, scheduler=scheduler
    )

    # --- Stage 2: group pairs by distinct ε; the group's arcs are gathered
    # for its smallest μ, whose core set contains every other pair's cores.
    distinct_eps, group_of = np.unique(epsilons, return_inverse=True)
    num_groups = int(distinct_eps.size)
    order_by_mu = np.lexsort((mus, group_of))
    boundaries = np.searchsorted(group_of[order_by_mu], np.arange(num_groups))
    base_pair = order_by_mu[boundaries]

    base_cores: list[np.ndarray] = [
        core_order.vertices[core_starts[p]: core_starts[p] + core_counts[p]]
        for p in base_pair.tolist()
    ]

    # --- Stage 3: ε-similar neighbor prefixes of every base core, located by
    # ONE shared doubling search spanning all groups at once.  Stored ids
    # are int32; gathered ids that index arrays (these cores, Stage 4's
    # targets and per-pair cores) are widened to intp once, when gathered.
    all_cores = (
        np.concatenate(base_cores).astype(np.intp)
        if base_cores else np.zeros(0, dtype=np.int64)
    )
    group_sizes = np.array([cores.size for cores in base_cores], dtype=np.int64)
    per_core_eps = np.repeat(distinct_eps, group_sizes)
    no_starts = neighbor_order.indptr[all_cores]
    no_lengths = neighbor_order.indptr[all_cores + 1] - no_starts
    prefix_counts = prefix_lengths_at_least(
        neighbor_order.similarities,
        per_core_eps,
        no_starts,
        no_lengths,
        scheduler=scheduler,
    )

    # --- Stage 4: one segmented gather per distinct ε, then an incremental
    # union-find per group over pairs in descending-μ order.
    n = neighbor_order.num_vertices
    results: list[CompactClustering] = [NO_CORES] * num_pairs
    group_offsets = np.zeros(num_groups + 1, dtype=np.int64)
    np.cumsum(group_sizes, out=group_offsets[1:])
    rank = np.zeros(n, dtype=np.int64)
    for group in range(num_groups):
        lo, hi = int(group_offsets[group]), int(group_offsets[group + 1])
        counts = prefix_counts[lo:hi]
        total = int(counts.sum())
        if total:
            num_nonempty = int(np.count_nonzero(counts))
            scheduler.charge(total, ceil_log2(max(num_nonempty, 1)) + 1.0)
            positions = segmented_ranges(no_starts[lo:hi], counts)
            group_sources = np.repeat(all_cores[lo:hi], counts)
            group_targets = gather_ids(neighbor_order.neighbors, positions)
            group_similarities = neighbor_order.similarities[positions]
        else:
            group_sources = np.zeros(0, dtype=np.int64)
            group_targets = np.zeros(0, dtype=np.int64)
            group_similarities = np.zeros(0, dtype=np.float64)

        # Descending μ: each pair's cores contain the previous pair's, so
        # the shared forest and core mask only ever grow and every group
        # arc is unioned exactly once across the whole group.
        group_pairs = order_by_mu[boundaries[group]: (
            boundaries[group + 1] if group + 1 < num_groups else num_pairs
        )][::-1]
        forest = UnionFind(n)
        is_core = np.zeros(n, dtype=bool)
        added = np.zeros(int(group_sources.size), dtype=bool)
        for pair in group_pairs.tolist():
            cores = core_order.vertices[
                core_starts[pair]: core_starts[pair] + core_counts[pair]
            ].astype(np.intp)
            if cores.size == 0:
                continue
            is_core[cores] = True
            source_is_core = is_core[group_sources]
            target_is_core = is_core[group_targets]
            scheduler.charge(
                int(group_sources.size) + int(cores.size),
                ceil_log2(max(int(group_sources.size), 1)) + 1.0,
            )

            # Connectivity (union-find, Section 6.2), incremental: only the
            # arcs that became core-core at this μ are new unions.
            new_arcs = source_is_core & target_is_core & ~added
            added |= new_arcs
            core_labels = forest.connect(
                scheduler, group_sources[new_arcs], group_targets[new_arcs], cores
            )

            # Border vertices: non-core endpoints of ε-similar edges out of
            # this pair's cores.
            border_arcs = source_is_core & ~target_is_core
            border_sources = group_sources[border_arcs]
            border_targets = group_targets[border_arcs]
            border_similarities = group_similarities[border_arcs]
            if not deterministic_borders and border_sources.size:
                # The arbitrary border rule keeps the first writer in
                # traversal order, so restore the pair's own order (CO[μ]-
                # prefix rank of the source; the stable sort keeps neighbor
                # order within a source) to match a lone query bit for bit.
                # The deterministic rule is order-independent.
                rank[cores] = np.arange(cores.size, dtype=np.int64)
                order = np.argsort(rank[border_sources], kind="stable")
                border_sources = border_sources[order]
                border_targets = border_targets[order]
                border_similarities = border_similarities[order]
            results[pair] = compact_answer(
                cores,
                core_labels,
                border_sources,
                border_targets,
                border_similarities,
                n,
                scheduler=scheduler,
                deterministic=deterministic_borders,
            )
    return results
