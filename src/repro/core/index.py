"""The parallel SCAN index: construction and the public query interface.

:class:`ScanIndex` bundles everything the paper calls "the index": the
similarity score of every edge, the neighbor order ``NO`` and the core order
``CO``.  Building it is the expensive, parallelisable step (Section 4.1);
once built, clusterings for arbitrary ``(μ, ε)`` parameters are cheap
(Section 4.2), which is the point of the index-based approach -- users
typically explore many parameter settings in search of a good clustering.

Typical usage::

    from repro import ScanIndex
    from repro.graphs import planted_partition

    graph = planted_partition(num_clusters=10, cluster_size=50, seed=0)
    index = ScanIndex.build(graph, measure="cosine")
    clustering = index.query(mu=5, epsilon=0.6)

Approximate (LSH-based) construction is selected by passing an
:class:`~repro.lsh.approximate.ApproximationConfig`::

    index = ScanIndex.build(graph, approximate=ApproximationConfig(num_samples=128))

A built index is a durable artifact: :meth:`ScanIndex.save` flattens it into
the columnar on-disk format of :mod:`repro.storage` and :meth:`ScanIndex.load`
memory-maps it back -- no similarity computation and no sorting happen on the
load path, not even for the serving ε-snapper, which wraps the stored
boundary table.  Whole parameter sweeps go through
:meth:`ScanIndex.query_many`, which plans a batch of ``(μ, ε)`` settings
together so shared index probes are executed once::

    index.save("orkut.scanidx")
    index = ScanIndex.load("orkut.scanidx")
    clusterings = index.query_many([(5, 0.6), (5, 0.7), (8, 0.6)])

For long-lived serving -- many queries against one loaded index, often with
repeats -- open a :meth:`ScanIndex.session`, which keeps answers compact
and caches them under ε-snapped keys (see :mod:`repro.serve`)::

    session = index.session()
    result = session.serve(5, 0.6)       # compact answer, cached
    clustering = session.query(5, 0.6)   # dense Clustering, cache hit

When the graph evolves, a batch of edge insertions/deletions patches the
index in place -- bit-identical to a rebuild on the mutated graph, in work
proportional to the affected neighborhoods (see :mod:`repro.dynamic`);
open sessions are auto-invalidated::

    index.apply_updates(insertions=[(3, 17)], deletions=[(0, 9)])
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .. import obs
from ..graphs.graph import Graph
from ..lsh.approximate import ApproximationConfig, compute_approximate_similarities
from ..parallel.execute import executor_for
from ..parallel.metrics import CostReport
from ..parallel.scheduler import PAPER_NUM_THREADS, Scheduler
from ..similarity.exact import EdgeSimilarities, compute_similarities
from .clustering import Clustering
from .core_order import CoreOrder, build_core_order
from .hubs import classify_unclustered
from .neighbor_order import NeighborOrder, build_neighbor_order
from .query import dense_clustering, get_cores
from .sweep_query import query_many as _query_many


@dataclass
class ScanIndex:
    """Precomputed SCAN index over a graph (GS*-Index structure, built in parallel).

    Attributes
    ----------
    graph:
        The indexed graph.
    similarities:
        Per-edge similarity scores the index was built from.
    neighbor_order, core_order:
        The two sorted orders queries read prefixes of.
    epsilon_boundaries:
        The ε boundary table: the sorted distinct edge similarities, which
        are every value a query compares ε against.  Ranked once at build,
        stored as a column, and wrapped as-is by the serving
        :class:`~repro.serve.snapping.EpsilonSnapper`.
    construction_report:
        Work/span/wall-clock record of the construction, used by the
        benchmark harness.
    update_lineage:
        One record per applied update batch (see :meth:`apply_updates`);
        empty for a freshly built index.  Persisted in the artifact header
        so a loaded index knows its mutation history.

    The index also keeps an in-memory mutation epoch, bumped by
    :meth:`apply_updates` and :meth:`ClusterSession.invalidate
    <repro.serve.session.ClusterSession.invalidate>`; every serving
    session compares it per request and clears its own cache when it moved.
    """

    graph: Graph
    similarities: EdgeSimilarities
    neighbor_order: NeighborOrder
    core_order: CoreOrder
    epsilon_boundaries: np.ndarray
    construction_report: CostReport
    update_lineage: list = field(default_factory=list)
    _mutation_epoch: int = field(default=0, init=False, repr=False, compare=False)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        graph: Graph,
        *,
        measure: str = "cosine",
        backend: str = "batch",
        approximate: ApproximationConfig | None = None,
        use_integer_sort: bool = True,
        num_workers: int = PAPER_NUM_THREADS,
        scheduler: Scheduler | None = None,
        jobs: int = 1,
    ) -> "ScanIndex":
        """Build the index, computing similarities from scratch.

        Parameters
        ----------
        graph:
            Input graph (weighted graphs require ``measure="cosine"``).
        measure:
            Structural similarity measure (``cosine``, ``jaccard``, ``dice``).
        backend:
            Exact similarity backend (``batch`` -- the vectorised default --
            ``merge``, ``hash``, ``matmul``); ignored when ``approximate``
            is given.
        approximate:
            When provided, similarities are estimated with LSH sketches
            (SimHash for cosine, MinHash for Jaccard) instead of computed
            exactly; see Section 5 of the paper.
        use_integer_sort:
            Sort the orders with the integer-sort bounds of Section 4.1.2.
        num_workers:
            *Simulated* processor count recorded on the scheduler (work-span
            accounting only; does not change how code executes).
        scheduler:
            Externally owned scheduler for cost accounting; a fresh one is
            created when omitted.
        jobs:
            *Real* worker processes for the construction hot spot (the
            batch similarity pass of an unweighted graph), executed
            through :mod:`repro.parallel.execute` over shared-memory
            columns.  ``1`` (default) is the serial code path, ``0`` means
            every visible core, and any count produces a bit-identical
            index.  Falls back to serial -- warning once -- when shared
            memory is unavailable or the graph is below the measured size
            floor where pool startup dominates.
        """
        scheduler = scheduler if scheduler is not None else Scheduler(num_workers)
        started = time.perf_counter()
        with executor_for(jobs, num_arcs=graph.num_arcs) as executor:
            with obs.span(
                "build.similarities",
                measure=measure,
                backend="lsh" if approximate is not None else backend,
                edges=graph.num_edges,
            ):
                if approximate is not None:
                    if approximate.measure != measure:
                        approximate = ApproximationConfig(
                            measure=measure,
                            num_samples=approximate.num_samples,
                            seed=approximate.seed,
                            use_k_partition_minhash=approximate.use_k_partition_minhash,
                            degree_threshold=approximate.degree_threshold,
                        )
                    similarities = compute_approximate_similarities(
                        graph, approximate, scheduler=scheduler
                    )
                else:
                    similarities = compute_similarities(
                        graph,
                        measure=measure,
                        backend=backend,
                        scheduler=scheduler,
                        executor=executor,
                    )
        return cls.build_from_similarities(
            graph,
            similarities,
            use_integer_sort=use_integer_sort,
            scheduler=scheduler,
            _started=started,
        )

    @classmethod
    def build_from_similarities(
        cls,
        graph: Graph,
        similarities: EdgeSimilarities,
        *,
        use_integer_sort: bool = True,
        scheduler: Scheduler | None = None,
        _started: float | None = None,
    ) -> "ScanIndex":
        """Build the index from similarity scores computed elsewhere.

        Both order builds are one in-process sort each; no worker pool is
        involved.
        """
        scheduler = scheduler if scheduler is not None else Scheduler()
        started = time.perf_counter() if _started is None else _started
        with obs.span("build.neighbor_order", arcs=graph.num_arcs):
            neighbor_order, epsilon_boundaries, ranks = build_neighbor_order(
                graph,
                similarities,
                scheduler=scheduler,
                use_integer_sort=use_integer_sort,
            )
        with obs.span("build.core_order", arcs=graph.num_arcs):
            core_order = build_core_order(
                graph,
                neighbor_order,
                ranks,
                scheduler=scheduler,
            )
        elapsed = time.perf_counter() - started
        obs.histogram("build.construction_seconds").observe(elapsed)
        report = CostReport.from_counter(
            label=f"index-construction[{similarities.measure}]",
            counter=scheduler.counter,
            wall_seconds=elapsed,
            num_workers=scheduler.num_workers,
            measure=similarities.measure,
        )
        return cls(
            graph=graph,
            similarities=similarities,
            neighbor_order=neighbor_order,
            core_order=core_order,
            epsilon_boundaries=epsilon_boundaries,
            construction_report=report,
        )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def core_vertices(
        self, mu: int, epsilon: float, *, scheduler: Scheduler | None = None
    ) -> np.ndarray:
        """Core vertices under ``(mu, epsilon)`` (Algorithm 3)."""
        return get_cores(self.core_order, mu, epsilon, scheduler=scheduler)

    def query(
        self,
        mu: int,
        epsilon: float,
        *,
        scheduler: Scheduler | None = None,
        deterministic_borders: bool = False,
        classify_hubs_and_outliers: bool = False,
    ) -> Clustering:
        """SCAN clustering for ``(mu, epsilon)`` (Algorithm 5).

        ``deterministic_borders`` assigns each border vertex to its most
        similar core neighbor (ties to the lower vertex id) instead of an
        arbitrary one, which makes repeated queries bit-for-bit reproducible
        (used by the quality experiments in Section 7.3.4).
        ``classify_hubs_and_outliers`` additionally labels every unclustered
        vertex as hub or outlier (Section 4.3).  The query is the one-pair
        batch of :meth:`query_many`, so a lone query and a sweep run the
        same planner stages.
        """
        return self.query_many(
            [(mu, epsilon)],
            scheduler=scheduler,
            deterministic_borders=deterministic_borders,
            classify_hubs_and_outliers=classify_hubs_and_outliers,
        )[0]

    def query_many(
        self,
        pairs: Iterable[tuple[int, float]] | Sequence[tuple[int, float]],
        *,
        scheduler: Scheduler | None = None,
        deterministic_borders: bool = False,
        classify_hubs_and_outliers: bool = False,
    ) -> list[Clustering]:
        """Clusterings for a whole batch of ``(mu, epsilon)`` settings.

        The batch is planned by :mod:`repro.core.sweep_query`: the pairs of
        one μ are one chain in descending ε that gathers and unions each arc
        once, and all doubling searches run as shared batches, so a
        50-point parameter sweep costs far less than 50 :meth:`query` calls.
        Results arrive in input order and are identical to per-pair
        :meth:`query` calls with the same options.

        Parameters
        ----------
        pairs:
            Iterable of ``(mu, epsilon)`` settings; duplicates are allowed,
            computed once, and each gets its own clustering.  Every ``mu``
            must be at least 2 and every ``epsilon`` in ``[0, 1]``.
        scheduler:
            Externally owned scheduler for work-span accounting; a fresh one
            is created when omitted.
        deterministic_borders:
            Attach each border vertex to its most similar core neighbor
            (ties to the lower vertex id) instead of the traversal-order
            first writer; makes repeated sweeps bit-for-bit reproducible.
        classify_hubs_and_outliers:
            Additionally label every unclustered vertex of every result as
            hub or outlier (Section 4.3).
        """
        scheduler = scheduler if scheduler is not None else Scheduler()
        pairs = list(pairs)
        answers = _query_many(
            self.neighbor_order,
            self.core_order,
            pairs,
            scheduler=scheduler,
            deterministic_borders=deterministic_borders,
        )
        n = self.graph.num_vertices
        clusterings = [
            dense_clustering(answer, n, int(mu), float(epsilon))
            for (mu, epsilon), answer in zip(pairs, answers)
        ]
        if classify_hubs_and_outliers:
            for clustering in clusterings:
                classify_unclustered(self.graph, clustering, scheduler=scheduler)
        return clusterings

    # ------------------------------------------------------------------
    # Serving (the serve/ subsystem seam)
    # ------------------------------------------------------------------
    def session(self, *, cache_size: int = 256):
        """Open a persistent :class:`~repro.serve.session.ClusterSession`.

        The session holds a bounded LRU result cache of compact answers
        keyed by ε-snapped parameters, so a stream of queries -- especially
        one with repeats -- is served with bit-identical answers and
        repeats never touch the index.

        Parameters
        ----------
        cache_size:
            Capacity of the session-owned result cache; zero or negative
            disables caching.
        """
        from ..serve.session import ClusterSession

        return ClusterSession(self, cache_size=cache_size)

    # ------------------------------------------------------------------
    # Mutation (the dynamic/ subsystem seam)
    # ------------------------------------------------------------------
    def apply_updates(
        self,
        batch=None,
        *,
        insertions=None,
        deletions=None,
        scheduler: Scheduler | None = None,
    ):
        """Apply a batch of edge insertions/deletions **in place**.

        The index is repaired, not rebuilt: only edges incident to a
        touched endpoint have their similarity recomputed, and only the
        affected vertices' runs of the neighbor and core orders are
        respliced (merges of sorted runs; see :mod:`repro.dynamic`).  The
        result is bit-identical to ``ScanIndex.build`` on the mutated
        graph -- same stored columns, same query answers in both border
        modes -- at a fraction of the cost for small batches (the
        ``perfbench`` workloads time one update end to end).

        Every open serving session over this index is auto-invalidated:
        the mutation bumps the index's epoch, so each session clears its
        cache on its next request and pre-update results can never be
        served afterwards.

        Parameters
        ----------
        batch:
            A prepared :class:`~repro.dynamic.UpdateBatch`; mutually
            exclusive with the keyword edge lists.
        insertions:
            Iterable of ``(u, v)`` or ``(u, v, weight)`` edges to add.
        deletions:
            Iterable of ``(u, v)`` edges to remove.
        scheduler:
            Work-span accounting target; a fresh one is used when omitted.

        Returns an :class:`~repro.dynamic.UpdateReport`.  Raises
        ``ValueError`` for LSH-approximate indexes, edges already present
        (insert) or absent (delete), and out-of-range endpoints.
        """
        from ..dynamic import UpdateBatch
        from ..dynamic.patch import apply_updates as _apply_updates

        if batch is None:
            batch = UpdateBatch.from_edges(insertions or (), deletions or ())
        elif insertions is not None or deletions is not None:
            raise ValueError(
                "pass either a prepared batch or insertions/deletions lists, not both"
            )
        return _apply_updates(self, batch, scheduler=scheduler)

    # ------------------------------------------------------------------
    # Persistence (the storage/ subsystem seam)
    # ------------------------------------------------------------------
    def save(self, path: str | Path) -> Path:
        """Persist the index as a columnar artifact directory.

        See :mod:`repro.storage.format` for the on-disk layout (uncompressed
        ``.npz`` columns plus a JSON header).

        Parameters
        ----------
        path:
            Target artifact *directory*.  The write is staged in a scratch
            sibling, fsynced, and swapped in through the backup-and-rename
            commit protocol of :mod:`repro.storage.integrity`, so a save
            interrupted at any instant leaves either the complete previous
            artifact or the complete new one -- never a torn mix.  The
            header records a CRC-32 per column so the write can later be
            proven intact (``repro index verify``).

        Returns the path written, for chaining into :meth:`load`.
        """
        from ..storage.artifact import save_index

        return save_index(self, path)

    @classmethod
    def load(
        cls,
        path: str | Path,
        *,
        mmap_mode: str | None = "r",
        verify: bool = False,
    ) -> "ScanIndex":
        """Load a saved index artifact, memory-mapping its columns.

        The load path performs no similarity computation and no sorting: the
        graph, the per-edge scores, both orders and the ε boundary table
        come straight from the stored columns (artifacts older than format
        version 5 derive the table with one ``np.unique`` over the edge
        scores).

        Parameters
        ----------
        path:
            Artifact directory written by :meth:`save`.
        mmap_mode:
            ``"r"`` (default) memory-maps every column read-only straight
            out of the uncompressed ``.npz``, so no column data is touched
            until a query reads it; ``None`` reads everything into memory
            up front (use when the artifact lives on storage slower than
            page-fault latency tolerates).
        verify:
            ``True`` additionally checks every column's CRC-32 against the
            header before returning (the deep integrity check; reads every
            byte).  The fast structural check -- header consistency, column
            dtypes/lengths, graph shape -- always runs.

        A target missing because a writer died between its commit renames
        is recovered from its parked backup first (lineage-checked; see
        :func:`repro.storage.integrity.recover_artifact`).

        Raises :class:`~repro.storage.format.ArtifactFormatError` when the
        path is missing, not an artifact, corrupt, or of an unsupported
        format version -- and its subclass
        :class:`~repro.storage.integrity.ArtifactIntegrityError` when
        stored bytes fail their recorded checksums.
        """
        from ..storage.artifact import load_index

        return load_index(path, mmap_mode=mmap_mode, verify=verify)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def measure(self) -> str:
        """Similarity measure the index was built with."""
        return self.similarities.measure

    def index_size_entries(self) -> int:
        """Number of stored (vertex, neighbor) and (vertex, μ) entries (O(m))."""
        return int(self.neighbor_order.neighbors.shape[0] + self.core_order.vertices.shape[0])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ScanIndex(n={self.graph.num_vertices}, m={self.graph.num_edges}, "
            f"measure={self.measure!r})"
        )
