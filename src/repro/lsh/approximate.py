"""Approximate all-edge similarities via LSH with the low-degree heuristic.

Section 6.3 of the paper observes that sketching is only worthwhile for
high-degree vertices: if a vertex's degree is small relative to the number of
samples ``k``, computing its similarities exactly is both cheaper and more
accurate than comparing ``k``-length sketches.  The implementation therefore

1. marks a vertex *high-degree* when its degree exceeds ``k`` (cosine /
   SimHash) or ``3k/2`` (Jaccard / MinHash);
2. approximates only the edges whose *both* endpoints are high-degree,
   comparing their sketches in one batched array pass;
3. computes every remaining edge exactly with the vectorised batch
   similarity engine restricted to those edges
   (:func:`~repro.similarity.batch.edge_numerators_for_subset`), so the
   low-degree side of the split also runs without per-edge Python loops.

The result is an :class:`~repro.similarity.exact.EdgeSimilarities` whose
``measure`` is prefixed with ``approx_`` so downstream code can tell the two
apart.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..graphs.graph import Graph
from ..parallel.metrics import ceil_log2
from ..parallel.scheduler import Scheduler
from ..similarity.batch import edge_numerators_for_subset
from ..similarity.exact import EdgeSimilarities, finalise_numerators
from .minhash import estimate_jaccard_batch, k_partition_minhash_sketches, minhash_sketches
from .simhash import estimate_cosine_batch, simhash_sketches

#: Degree multiple above which a vertex is sketched, per similarity measure.
DEGREE_THRESHOLD_FACTOR = {"cosine": 1.0, "jaccard": 1.5}


@dataclass(frozen=True)
class ApproximationConfig:
    """Settings of one approximate similarity computation.

    Attributes
    ----------
    measure:
        ``"cosine"`` (SimHash) or ``"jaccard"`` (MinHash).
    num_samples:
        Sketch length ``k``.
    seed:
        Seed of the sketching randomness.
    use_k_partition_minhash:
        Use the cheaper one-permutation variant for Jaccard (the paper's
        implementation choice).  Ignored for cosine.
    degree_threshold:
        Degree above which a vertex is sketched.  ``None`` selects the
        paper's heuristic (``k`` for cosine, ``1.5 k`` for Jaccard).
    """

    measure: str = "cosine"
    num_samples: int = 64
    seed: int = 0
    use_k_partition_minhash: bool = True
    degree_threshold: int | None = None

    def resolved_threshold(self) -> int:
        """Effective high-degree threshold."""
        if self.degree_threshold is not None:
            return int(self.degree_threshold)
        factor = DEGREE_THRESHOLD_FACTOR[self.measure]
        return int(np.ceil(factor * self.num_samples))

    def __post_init__(self) -> None:
        if self.measure not in DEGREE_THRESHOLD_FACTOR:
            raise ValueError(
                f"measure must be one of {tuple(DEGREE_THRESHOLD_FACTOR)}, got {self.measure!r}"
            )
        if self.num_samples < 1:
            raise ValueError("num_samples must be >= 1")


def _exact_similarities_for_edges(
    graph: Graph,
    edge_ids: np.ndarray,
    measure: str,
    scheduler: Scheduler,
) -> np.ndarray:
    """Exact similarity of the selected edges only (the low-degree fallback).

    Uses the same "probe the larger neighborhood with the smaller one"
    strategy as Algorithm 1, restricted to the requested edges, executed as
    one batched array pass (:func:`~repro.similarity.batch.
    edge_numerators_for_subset`) rather than a per-edge Python loop; work
    still adds up across edges with the span of the largest single edge.
    The scores come from :func:`~repro.similarity.exact.finalise_numerators`
    over the same endpoints, so each fallback edge is scored exactly as an
    exact build scores it.
    """
    edge_ids = np.asarray(edge_ids, dtype=np.int64)
    numerators = edge_numerators_for_subset(graph, edge_ids, scheduler)
    edge_u, edge_v = graph.edge_list()
    return finalise_numerators(
        graph,
        numerators,
        measure,
        endpoints=(edge_u[edge_ids], edge_v[edge_ids]),
        scheduler=scheduler,
    )


def compute_approximate_similarities(
    graph: Graph,
    config: ApproximationConfig | None = None,
    *,
    scheduler: Scheduler | None = None,
    **config_kwargs,
) -> EdgeSimilarities:
    """Approximate similarity score of every edge of ``graph``.

    Either pass an :class:`ApproximationConfig` or the individual fields as
    keyword arguments (``measure=...``, ``num_samples=...``, ``seed=...``).
    """
    if config is None:
        config = ApproximationConfig(**config_kwargs)
    elif config_kwargs:
        raise ValueError("pass either a config object or keyword fields, not both")
    if graph.is_weighted and config.measure != "cosine":
        raise ValueError("weighted graphs only support the (weighted) cosine measure")
    scheduler = scheduler if scheduler is not None else Scheduler()

    measure_label = f"approx_{config.measure}"
    if graph.num_edges == 0:
        return EdgeSimilarities(graph, np.zeros(0, dtype=np.float64), measure_label, "lsh")

    threshold = config.resolved_threshold()
    degrees = graph.degrees
    high_degree = degrees > threshold
    edge_u, edge_v = graph.edge_list()
    approximate_mask = high_degree[edge_u] & high_degree[edge_v]
    scheduler.charge(graph.num_edges, ceil_log2(max(graph.num_edges, 1)) + 1.0)

    values = np.zeros(graph.num_edges, dtype=np.float64)

    # Sketch only vertices that are high-degree *and* have a high-degree
    # neighbor (Section 6.3: no sketches are needed otherwise).
    sketch_vertices = np.unique(
        np.concatenate([edge_u[approximate_mask], edge_v[approximate_mask]])
    )
    if sketch_vertices.size:
        if config.measure == "cosine":
            sketches = simhash_sketches(
                graph,
                config.num_samples,
                seed=config.seed,
                scheduler=scheduler,
                vertices=sketch_vertices,
            )
            values[approximate_mask] = estimate_cosine_batch(
                sketches,
                edge_u[approximate_mask],
                edge_v[approximate_mask],
                scheduler=scheduler,
            )
        else:
            if config.use_k_partition_minhash:
                sketches = k_partition_minhash_sketches(
                    graph,
                    config.num_samples,
                    seed=config.seed,
                    scheduler=scheduler,
                    vertices=sketch_vertices,
                )
            else:
                sketches = minhash_sketches(
                    graph,
                    config.num_samples,
                    seed=config.seed,
                    scheduler=scheduler,
                    vertices=sketch_vertices,
                )
            values[approximate_mask] = estimate_jaccard_batch(
                sketches,
                edge_u[approximate_mask],
                edge_v[approximate_mask],
                k_partition=config.use_k_partition_minhash,
                scheduler=scheduler,
            )

    exact_edges = np.flatnonzero(~approximate_mask)
    if exact_edges.size:
        values[exact_edges] = _exact_similarities_for_edges(
            graph, exact_edges, config.measure, scheduler
        )

    return EdgeSimilarities(graph, values, measure_label, "lsh")
