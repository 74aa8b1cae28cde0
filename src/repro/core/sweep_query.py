"""The query engine: SCAN clusterings for a batch of ``(μ, ε)`` settings.

Every query runs here, so the stages of Algorithms 3-5 are written once: a
lone :meth:`ScanIndex.query <repro.core.index.ScanIndex.query>` or serving
cache miss is the one-pair batch.  Parameter exploration -- the workload
the index exists for -- queries one index over a grid of settings, and the
planner removes the redundancy of issuing them one by one:

1. *one* batched doubling search (:func:`~repro.core.doubling.
   prefix_lengths_at_least`) finds the core prefix of every pair;
2. pairs are grouped by distinct ε.  Within a group the core sets are nested
   (``cores(μ', ε) ⊆ cores(μ, ε)`` for ``μ' ≥ μ``), so one shared doubling
   search locates the ε-prefix of ``NO`` of every core of each group's
   smallest μ (its *base pair*), for all groups at once;
3. each distinct μ is one *chain* of its settings in descending ε.  Both
   GS* orders are monotone along it: as ε falls every ``CO[μ]`` prefix and
   every ε-prefix of ``NO`` only grow, so cores, core-core arcs and border
   candidates are only ever added.  A chain keeps one union-find forest, one
   core mask, one gathered prefix length per core and one running border
   table; each step gathers only the ``NO`` slice each core gained since the
   previous step (whole prefixes for new cores), unions the slice's arcs
   into cores, folds its other arcs into the border table and reads the
   labels off the grown forest.  Each arc is gathered and unioned once per
   μ, not masked once per pair.

Read along μ, the nesting says that two settings at one ε with the same
core count select the same cores.  The border rule depends only on the core
set (not on its order), so their clusterings are then identical; only the
order of the cores differs, since each μ lists them in its own ``CO[μ]``
order.  So after stage 1 every setting whose core count (> 0) equals that
of a smaller μ at its ε takes no chain step (it is never its group's base
pair, so stages 2 and 3 search nothing for it) and is answered from that
*twin* afterwards: its own ``CO[μ]`` prefix as the cores, labelled through
a dense map of the twin's cores, and the twin's borders and cluster count
as they are.  A chain that skips a step gathers the wider band at its next
computed step.

A core's prefix at a step is read off its base pair's block, at the core's
rank in the base μ's ``CO`` list: cores of a larger μ lie in the base
prefix, so one rank vector per distinct base μ suffices.  An arc whose
target is not yet a core is not unioned; should that target become a core,
its own prefix (gathered in full then) holds the reverse arc.

Borders are attached without a sort, by a running table per chain.  A
border joins its most similar core, ties to the lower core id (the rule of
the paper's experiments, Section 7.3.4): a scatter-max raises each border's
best similarity, a border whose best rose drops its earlier winner, and a
scatter-min picks the lowest core id among the arcs that tie the best.  A
vertex that becomes a core leaves the table, so its reached slots are
exactly the borders, and a border's label is read after the step's unions.

Every answer is a :class:`~repro.core.query.CompactClustering`, bit for bit
the pair's answer when queried alone: labels are union-find
representatives (the minimum vertex id of each component under
min-hooking, whatever the union order) and the border rule is
arc-order-independent.  A one-pair batch is a one-step chain, so it does
and charges exactly one query's work; duplicate settings are answered once.

The stages run under the spans ``core.query.prefix`` (both doubling
searches, the twin marks, the grouping and the chain plan; its ``twins``
attribute counts the settings answered from a twin), and
``core.query.gather``, ``core.query.connect`` and ``core.query.borders``
(per chain step).
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
    with obs.span("core.query.prefix") as span:
        co_indptr = core_order.indptr
        in_range = mus <= max_mu          # mus >= 2 already enforced
        clipped = np.where(in_range, mus, 0)    # index 0/1 exist even when empty
        core_starts = co_indptr[clipped]
        core_lengths = np.where(in_range, co_indptr[clipped + 1] - core_starts, 0)
        core_counts = prefix_lengths_at_least(
            core_order.thresholds, epsilons, core_starts, core_lengths,
            scheduler=scheduler,
        )
        # A setting that selects as many cores as a smaller μ at its ε is
        # answered from that twin, not chained.
        twin = _twins(mus, epsilons, core_counts)
        computed = np.flatnonzero(twin < 0)
        span.attrs["twins"] = num_pairs - int(computed.size)

        # --- Stage 2: group pairs by distinct ε; the group's prefixes are
        # searched for its smallest μ, whose core set contains every other
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
        # the chains' cores and targets) are widened to intp once, when
        # gathered.
        all_cores = np.concatenate(base_cores).astype(np.intp)
        group_sizes = np.array([cores.size for cores in base_cores], dtype=np.int64)
        per_core_eps = np.repeat(distinct_eps, group_sizes)
        no_starts = neighbor_order.indptr[all_cores]
        no_lengths = neighbor_order.indptr[all_cores + 1] - no_starts
        prefix_counts = prefix_lengths_at_least(
            neighbor_order.similarities, per_core_eps, no_starts, no_lengths,
            scheduler=scheduler,
        )

        # --- Stage 4 plan: one chain per distinct μ, walked in descending ε.
        n = neighbor_order.num_vertices
        group_offsets = np.zeros(num_groups + 1, dtype=np.int64)
        np.cumsum(group_sizes, out=group_offsets[1:])
        chain_order = computed[np.lexsort((-epsilons[computed], mus[computed]))]
        chain_bounds = np.flatnonzero(np.diff(mus[chain_order])) + 1

    # A core's ε-prefix is read off its base pair's block, at its rank in
    # the base μ's CO list (cores of a larger μ lie in the base prefix).
    # One rank vector serves every step: it is extended as longer base
    # prefixes are needed, and refilled only when the base μ changes.
    rank = np.empty(n, dtype=np.int64)
    ranked_mu, ranked = 0, 0
    results: list[CompactClustering] = [NO_CORES] * num_pairs
    for chain in np.split(chain_order, chain_bounds):
        # Descending ε only ever adds cores and lengthens every core's
        # ε-prefix, so the chain's forest, core mask, gathered prefix
        # lengths and border table only ever grow; settings without cores
        # (the largest ε of the chain) come first and are skipped.
        chain = chain[core_counts[chain] > 0]
        if not chain.size:
            continue
        forest = UnionFind(n)
        is_core = np.zeros(n, dtype=bool)
        done = np.zeros(int(core_counts[chain[-1]]), dtype=np.int64)
        # Border table: each vertex's winning core and its similarity; ``n``
        # marks the vertices no border arc reaches and the cores.
        winner = np.full(n, n, dtype=np.int64)
        best = np.full(n, -np.inf)
        previous = None
        for pair in chain.tolist():
            if previous is not None and epsilons[pair] == epsilons[previous]:
                results[pair] = results[previous]      # a duplicate setting
                continue
            previous = pair
            group = int(group_of[pair])
            count = int(core_counts[pair])
            cores = core_order.vertices[
                core_starts[pair]: core_starts[pair] + count
            ].astype(np.intp)
            with obs.span("core.query.gather"):
                base = int(base_pair[group])
                if int(mus[base]) != ranked_mu:
                    ranked_mu, ranked = int(mus[base]), 0
                start, needed = int(core_starts[base]), int(core_counts[base])
                if needed > ranked:
                    rank[core_order.vertices[start + ranked: start + needed]] = (
                        np.arange(ranked, needed)
                    )
                    ranked = needed
                # Only each core's NO slice beyond what earlier steps
                # gathered: the ε band [done, prefix), in neighbor order.
                block = group_offsets[group] + rank[cores]
                prefix = prefix_counts[block]
                counts = prefix - done[:count]
                starts = no_starts[block] + done[:count]
                done[:count] = prefix
                total = int(counts.sum())
                if total:
                    num_nonempty = int(np.count_nonzero(counts))
                    scheduler.charge(total, ceil_log2(max(num_nonempty, 1)) + 1.0)
                # The arcs' NO positions are dropped once gathered; a border
                # arc's position is recovered from its block when needed.
                targets = gather_ids(
                    neighbor_order.neighbors, segmented_ranges(starts, counts)
                )
                block_ends = np.cumsum(counts)
                block_starts = block_ends - counts

            # Connectivity (union-find, Section 6.2), incremental: the new
            # arcs between cores.  An arc to a vertex that is not yet a core
            # is skipped; should it become one, its own prefix (gathered in
            # full then) holds the reverse arc.
            with obs.span("core.query.connect"):
                is_core[cores] = True
                to_core = is_core[targets]
                core_labels = forest.connect(
                    scheduler, cores, targets, cores, counts=counts, keep=to_core,
                )

            # Border vertices (Algorithm 4): each non-core endpoint of an
            # ε-similar arc out of a core joins its most similar source, ties
            # to the lower core id.  The new arcs update a running
            # scatter-max/min table; labels are read after this step's
            # unions, so later merges are respected.
            with obs.span("core.query.borders"):
                winner[cores] = n           # cores leave the border table
                border = np.flatnonzero(~to_core)
                border_targets = targets[border]
                # Border arcs per block, by a merge of the ascending arc
                # indices against the block bounds.
                per_block = np.searchsorted(border, block_ends) - np.searchsorted(
                    border, block_starts
                )
                shift = starts - block_starts
                _raise_best(
                    best, winner, border_targets, np.repeat(cores, per_block),
                    neighbor_order.similarities[border + np.repeat(shift, per_block)],
                )
                border_vertices = np.flatnonzero(winner < n)
                border_sources = winner[border_vertices]
                results[pair] = _compact_answer(
                    cores, core_labels, border_vertices, border_sources,
                    int(border.size), n, scheduler=scheduler,
                )
    if computed.size < num_pairs:
        _answer_twins(core_order, core_starts, twin, results, n, scheduler=scheduler)
    return results


def _twins(mus: np.ndarray, epsilons: np.ndarray, core_counts: np.ndarray) -> np.ndarray:
    """Each setting's *twin*: the smallest μ at its ε with as many cores, or -1.

    Core sets are nested in μ at a fixed ε, so an equal count means the
    same cores, and so the same clusters.
    A setting is its own answer (-1) when it selects no cores or when no
    smaller μ of the batch at its ε selects as many; a duplicate of such a
    setting stays in its chain, which answers it once.
    """
    order = np.lexsort((mus, epsilons))
    eps, counts = epsilons[order], core_counts[order]
    # A run of equal counts at one ε, in ascending μ, starts at its twin.
    starts = np.ones(order.size, dtype=bool)
    starts[1:] = (eps[1:] != eps[:-1]) | (counts[1:] != counts[:-1])
    root = order[np.maximum.accumulate(np.where(starts, np.arange(order.size), 0))]
    twin = np.full(order.size, -1, dtype=np.int64)
    marked = (counts > 0) & (mus[order] != mus[root])
    twin[order[marked]] = root[marked]
    return twin


def _answer_twins(
    core_order,
    core_starts: np.ndarray,
    twin: np.ndarray,
    results: list[CompactClustering],
    n: int,
    *,
    scheduler: Scheduler,
) -> None:
    """Answer every setting that has a twin from the twin's answer.

    The cores are the same set, listed in the setting's own ``CO[μ]``-prefix
    order and labelled through a dense map of the twin's cores; the borders,
    their labels and the cluster count are the twin's.  Duplicates share
    one answer.
    """
    label_of = np.empty(n, dtype=np.int64)   # only core entries are read
    answered: dict[tuple[int, int], CompactClustering] = {}
    for pair in np.flatnonzero(twin >= 0).tolist():
        # (start of CO[μ], twin) names the setting: duplicates share it.
        key = (int(core_starts[pair]), int(twin[pair]))
        if key not in answered:
            start, source = key[0], results[key[1]]
            count = source.num_cores
            scheduler.charge(count, 1.0)
            label_of[source.vertices[:count]] = source.labels[:count]
            cores = core_order.vertices[start: start + count].astype(np.intp)
            answered[key] = CompactClustering(
                _read_only(np.concatenate([cores, source.vertices[count:]])),
                _read_only(np.concatenate([label_of[cores], source.labels[count:]])),
                count,
                source.num_clusters,
            )
        results[pair] = answered[key]


def _raise_best(
    best: np.ndarray,
    winner: np.ndarray,
    targets: np.ndarray,
    sources: np.ndarray,
    similarities: np.ndarray,
) -> None:
    """Fold arcs into a running (best similarity, lowest source id) table.

    A scatter-max raises every target's best similarity; a target whose
    best rose drops its earlier winner, and a scatter-min then picks the
    lowest source id among the arcs that tie the best.
    """
    before = best[targets]
    np.maximum.at(best, targets, similarities)
    after = best[targets]
    winner[targets[after > before]] = winner.shape[0]
    tied = similarities == after
    np.minimum.at(winner, targets[tied], sources[tied])


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
