"""The query engine: SCAN clusterings for a batch of ``(μ, ε)`` settings.

Every query runs here, so the stages of Algorithms 3-5 are written once: a
lone :meth:`ScanIndex.query <repro.core.index.ScanIndex.query>` or serving
cache miss is the one-pair batch.  Parameter exploration -- the workload
the index exists for -- queries one index over a grid of settings, and the
planner removes the redundancy of issuing them one by one:

1. *one* batched doubling search (:func:`~repro.core.doubling.
   prefix_lengths_at_least`) finds the core prefix of every pair;
2. pairs are grouped by distinct ε.  Within a group the core sets are nested
   (``cores(μ', ε) ⊆ cores(μ, ε)`` for ``μ' ≥ μ``), so the group's ε-similar
   arcs are gathered *once*, for its smallest μ (the *base pair*) -- one
   shared doubling search locates every group's prefixes, then one
   segmented gather per distinct ε materialises them;
3. the pairs of a group run in *descending* μ order over one shared
   union-find forest: descending μ only ever adds cores, so each step unions
   just the newly eligible core-core arcs and reads the labels off the grown
   forest.  Every arc of the group is unioned once, instead of once per
   pair -- union-find dominates a query, so this is the sweep's asymptotic
   saving;
4. each pair attaches its own borders (Algorithm 4): each joins the
   cluster of its first arc in the border rule's priority order.

A group's arcs stay where the gather put them, in one block per base core
(its ε-prefix of ``NO``, in neighbor order); each pair selects its core-core
and border arcs with masks over those blocks, never with compressed copies,
and :meth:`~repro.parallel.unionfind.UnionFind.connect` unions the blocks
in place.  Borders are attached without a sort: a scatter-max of each
border's best similarity, then a scatter-min of the lowest core id among
the arcs that reach it (deterministic rule), or one scatter-min of each
arc's traversal rank (first-writer rule).

Every answer is a :class:`~repro.core.query.CompactClustering`, bit for bit
the pair's answer when queried alone.  Labels are union-find
representatives (the minimum vertex id of each component under
min-hooking, whatever the union order) and the deterministic border rule
is arc-order-independent; for the first-writer rule a border arc's rank is
its source's ``CO[μ]``-prefix rank in the pair's own traversal order (all
arcs of one source give the same answer, so neighbor order within a core
needs no rank).  For the base pair that rank is the block index: its cores
are exactly the cores the arcs were gathered for, so every arc starts at a
core and no source-core mask is needed.  A one-pair batch therefore does
and charges exactly one query's work.

The stages run under the spans ``core.query.prefix`` (both doubling
searches and the grouping), ``core.query.gather`` (per ε group),
``core.query.connect`` and ``core.query.borders`` (per pair).
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .. import obs

from ..graphs.graph import gather_ids
from ..parallel.metrics import ceil_log2
from ..parallel.primitives import segmented_ranges
from ..parallel.scheduler import Scheduler
from ..parallel.unionfind import UnionFind
from .doubling import prefix_lengths_at_least
from .query import CompactClustering, check_setting


def _read_only(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


#: The answer of every setting that selects no cores.
NO_CORES = CompactClustering(
    _read_only(np.zeros(0, dtype=np.int64)), _read_only(np.zeros(0, dtype=np.int64)), 0, 0
)


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
    in input order, each identical to the pair's one-pair batch (every
    setting without cores shares :data:`NO_CORES`).
    """
    pairs = list(pairs)
    if not pairs:
        return []
    scheduler = scheduler if scheduler is not None else Scheduler()
    max_mu = core_order.max_mu
    mus, epsilons = _validate_pairs(pairs, max_mu)
    num_pairs = int(mus.size)

    # --- Stage 1: core prefixes of all pairs, one batched doubling search.
    with obs.span("core.query.prefix"):
        co_indptr = core_order.indptr
        in_range = mus <= max_mu          # mus >= 2 already enforced
        clipped = np.where(in_range, mus, 0)    # index 0/1 exist even when empty
        core_starts = co_indptr[clipped]
        core_lengths = np.where(in_range, co_indptr[clipped + 1] - core_starts, 0)
        core_counts = prefix_lengths_at_least(
            core_order.thresholds, epsilons, core_starts, core_lengths,
            scheduler=scheduler,
        )

        # --- Stage 2: group pairs by distinct ε; the group's arcs are
        # gathered for its smallest μ, whose core set contains every other
        # pair's cores.
        distinct_eps, group_of = np.unique(epsilons, return_inverse=True)
        num_groups = int(distinct_eps.size)
        order_by_mu = np.lexsort((mus, group_of))
        boundaries = np.append(
            np.searchsorted(group_of[order_by_mu], np.arange(num_groups)), num_pairs
        )
        base_pair = order_by_mu[boundaries[:-1]]

        base_cores: list[np.ndarray] = [
            core_order.vertices[core_starts[p]: core_starts[p] + core_counts[p]]
            for p in base_pair.tolist()
        ]

        # --- Stage 3: ε-similar neighbor prefixes of every base core,
        # located by ONE shared doubling search spanning all groups at once.
        # Stored ids are int32; gathered ids that index arrays (these cores,
        # Stage 4's targets and per-pair cores) are widened to intp once,
        # when gathered.
        all_cores = np.concatenate(base_cores).astype(np.intp)
        group_sizes = np.array([cores.size for cores in base_cores], dtype=np.int64)
        per_core_eps = np.repeat(distinct_eps, group_sizes)
        no_starts = neighbor_order.indptr[all_cores]
        no_lengths = neighbor_order.indptr[all_cores + 1] - no_starts
        prefix_counts = prefix_lengths_at_least(
            neighbor_order.similarities, per_core_eps, no_starts, no_lengths,
            scheduler=scheduler,
        )

    # --- Stage 4: one segmented gather per distinct ε, then an incremental
    # union-find per group over pairs in descending-μ order.  A group's arcs
    # stay in the gathered blocks (block i: base core i's ε-prefix); each
    # pair selects its arcs with masks, never with compressed copies.
    n = neighbor_order.num_vertices
    results: list[CompactClustering] = [NO_CORES] * num_pairs
    group_offsets = np.zeros(num_groups + 1, dtype=np.int64)
    np.cumsum(group_sizes, out=group_offsets[1:])
    rank = np.zeros(n, dtype=np.int64)
    for group in range(num_groups):
        lo, hi = int(group_offsets[group]), int(group_offsets[group + 1])
        group_cores = all_cores[lo:hi]
        counts = prefix_counts[lo:hi]
        total = int(counts.sum())
        with obs.span("core.query.gather"):
            if total:
                num_nonempty = int(np.count_nonzero(counts))
                scheduler.charge(total, ceil_log2(max(num_nonempty, 1)) + 1.0)
            # The arcs' NO positions are dropped once gathered; a border
            # arc's position is recovered from its block when needed.
            group_targets = gather_ids(
                neighbor_order.neighbors, segmented_ranges(no_starts[lo:hi], counts)
            )
            block_ends = np.cumsum(counts)
            block_starts = block_ends - counts

        # Descending μ: each pair's cores contain the previous pair's, so
        # the shared forest and core mask only ever grow and every group
        # arc is unioned exactly once across the whole group.  The group's
        # smallest μ (its base pair) therefore comes last.
        group_pairs = order_by_mu[boundaries[group]: boundaries[group + 1]][::-1]
        forest = UnionFind(n)
        is_core = np.zeros(n, dtype=bool)
        unioned = None      # the previous pair's core-core arcs
        for pair in group_pairs.tolist():
            cores = core_order.vertices[
                core_starts[pair]: core_starts[pair] + core_counts[pair]
            ].astype(np.intp)
            if cores.size == 0:
                continue
            is_base = pair == base_pair[group]
            with obs.span("core.query.connect"):
                is_core[cores] = True
                target_is_core = is_core[group_targets]
                if is_base:
                    # The base pair's cores are exactly the cores the arcs
                    # were gathered for: every arc starts at a core, in the
                    # pair's own traversal order, so a lone query pays
                    # nothing more.
                    core_arcs = target_is_core
                    border_arcs = ~target_is_core
                else:
                    source_is_core = np.repeat(is_core[group_cores], counts)
                    scheduler.charge(
                        total + int(cores.size), ceil_log2(max(total, 1)) + 1.0
                    )
                    core_arcs = source_is_core & target_is_core
                    border_arcs = source_is_core & ~target_is_core

                # Connectivity (union-find, Section 6.2), incremental: only
                # the arcs that became core-core at this μ are new unions.
                new_arcs = core_arcs if unioned is None else core_arcs & ~unioned
                unioned = core_arcs
                core_labels = forest.connect(
                    scheduler, group_cores, group_targets, cores,
                    counts=counts, keep=new_arcs,
                )

            # Border vertices (Algorithm 4): each non-core endpoint of an
            # ε-similar arc out of this pair's cores joins the source of its
            # first arc in the border rule's priority order, found by a
            # scatter-min (or -max) per border vertex rather than a sort.
            with obs.span("core.query.borders"):
                border = np.flatnonzero(border_arcs)
                border_targets = group_targets[border]
                # Border arcs per block, by a merge of the ascending arc
                # indices against the block bounds.
                per_block = np.searchsorted(border, block_ends) - np.searchsorted(
                    border, block_starts
                )
                if deterministic_borders:
                    # Most similar core first, ties to the lower core id.
                    shift = no_starts[lo:hi] - block_starts
                    border_vertices, border_sources = _best_source(
                        border_targets, np.repeat(group_cores, per_block),
                        neighbor_order.similarities[border + np.repeat(shift, per_block)],
                        n,
                    )
                else:
                    # The first writer in the pair's own traversal order
                    # wins: the source of lowest CO[μ]-prefix rank.  The
                    # base pair's blocks are in that order already.
                    if is_base:
                        ranked, block_rank = group_cores, np.arange(group_cores.size)
                    else:
                        rank[cores] = np.arange(cores.size, dtype=np.int64)
                        ranked, block_rank = cores, rank[group_cores]
                    border_vertices, first = _lowest_key(
                        border_targets, np.repeat(block_rank, per_block), n
                    )
                    border_sources = ranked[first]
                results[pair] = _compact_answer(
                    cores, core_labels, border_vertices, border_sources,
                    int(border.size), n, scheduler=scheduler,
                )
    return results


def _lowest_key(
    targets: np.ndarray, keys: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """The distinct ``targets`` in ascending order, each with its lowest key.

    One scatter-min over an ``n``-slot table; every key must be below ``n``,
    which marks the slots no arc reaches.
    """
    lowest = np.full(n, n, dtype=np.int64)
    np.minimum.at(lowest, targets, keys)
    reached = np.flatnonzero(lowest < n)
    return reached, lowest[reached]


def _best_source(
    targets: np.ndarray, sources: np.ndarray, similarities: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """The distinct ``targets`` ascending, each with its most similar source.

    A scatter-max picks every target's best similarity; among the arcs that
    reach it, a scatter-min picks the lowest source id.
    """
    best = np.full(n, -np.inf)
    np.maximum.at(best, targets, similarities)
    tied = similarities == best[targets]
    return _lowest_key(targets[tied], sources[tied], n)


def _compact_answer(
    cores: np.ndarray,
    core_labels: np.ndarray,
    border_vertices: np.ndarray,
    border_sources: np.ndarray,
    num_border_arcs: int,
    n: int,
    *,
    scheduler: Scheduler,
) -> CompactClustering:
    """Attach the borders to the clustered cores and pack the answer (Algorithm 4).

    ``cores`` are in ``CO[μ]``-prefix order with their union-find labels;
    ``border_vertices`` ascend, and each joins the cluster of its
    ``border_sources`` core, the winner among its ``num_border_arcs``
    candidate arcs.
    """
    scheduler.charge(num_border_arcs, ceil_log2(max(num_border_arcs, 1)) + 1.0)
    if border_vertices.size:
        # Only core entries are written and then read, so no fill is needed.
        label_of = np.empty(n, dtype=np.int64)
        label_of[cores] = core_labels
        border_labels = label_of[border_sources]
    else:
        border_labels = np.zeros(0, dtype=np.int64)
    return CompactClustering(
        _read_only(np.concatenate([cores, border_vertices])),
        _read_only(np.concatenate([core_labels, border_labels])),
        int(cores.size),
        int(np.count_nonzero(core_labels == cores)),
    )
