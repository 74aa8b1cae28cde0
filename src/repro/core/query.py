"""Index queries: the SCAN clustering for one ``(μ, ε)`` setting.

A query (Algorithms 3-5 of the paper) finds the cores as a prefix of
``CO[μ]`` by doubling search (:func:`get_cores`, Algorithm 3), gathers the
ε-similar prefixes of the cores' neighbor-order lists, clusters the cores
by union-find over the ε-similar core-core arcs (Algorithm 5 with the
union-find of Section 6.2) and attaches every border vertex to one
neighboring core's cluster.  Algorithm 4 lets a border join any ε-similar
core; every query here uses the rule of the paper's experiments (Section
7.3.4): the most similar core, ties to the lower core id, so an answer does
not depend on traversal order.  Its total work is proportional to the
ε-similar arcs touching the output clusters (Theorem 4.3).

Those stages are written once, in the batch planner
:func:`repro.core.sweep_query.query_many`; :func:`cluster` is its one-pair
batch, densified.  This module holds what every query path shares: the
range check, the border-rule check of the public entry points, the compact
answer type and its one densification.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from ..parallel.scheduler import Scheduler
from .clustering import UNCLUSTERED, Clustering


def check_setting(mu: int, epsilon: float) -> None:
    """Reject a ``(mu, epsilon)`` setting outside ``mu >= 2``, ``0 <= epsilon <= 1``.

    The one range check of every query entry point (single, sweep, served);
    the comparison is written so that a NaN ε fails it too.
    """
    if mu < 2:
        raise ValueError(f"mu must be at least 2, got {mu}")
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError(f"epsilon must lie in [0, 1], got {epsilon}")


def check_border_rule(deterministic_borders) -> None:
    """Reject any border rule but the most-similar-core one.

    The public query entry points keep a keyword-only
    ``deterministic_borders=True`` so that callers which name the rule keep
    working; there is no other rule to select.
    """
    if deterministic_borders is not True:
        raise ValueError(
            f"deterministic_borders={deterministic_borders!r} is not supported: "
            "the first-writer border rule was removed; every query attaches a "
            "border vertex to its most similar core (ties to the lower id)"
        )


def get_cores(
    core_order,
    mu: int,
    epsilon: float,
    *,
    scheduler: Scheduler | None = None,
) -> np.ndarray:
    """Core vertices under ``(mu, epsilon)`` (Algorithm 3).

    ``mu`` counts the vertex itself (closed ε-neighborhood), following the
    paper; ``mu <= 1`` therefore makes every vertex a core, and values above
    the maximum closed degree yield no cores.
    """
    check_setting(mu, epsilon)
    return core_order.cores(mu, epsilon, scheduler=scheduler)


class CompactClustering(NamedTuple):
    """A clustering that lists only its clustered vertices.

    ``vertices`` holds the cores first, in their ``CO[μ]``-prefix order
    (``vertices[:num_cores]``), then the borders ascending; ``labels`` is the
    cluster id of each, aligned.  ``num_clusters`` counts the cores labelled
    with their own id: union-find representatives are the minimum core id of
    each component, so every cluster has exactly one such core.  Both arrays
    are read-only, so one answer can be shared (the serving cache does).
    """

    vertices: np.ndarray
    labels: np.ndarray
    num_cores: int
    num_clusters: int


def dense_clustering(compact, num_vertices: int, mu: int, epsilon: float) -> Clustering:
    """Dense :class:`Clustering` from a :class:`CompactClustering` (one O(n) scatter).

    The one place an answer is densified: :func:`cluster`,
    :meth:`ScanIndex.query_many <repro.core.index.ScanIndex.query_many>` and
    the serving session (served results and sweeps) all go through it, so
    the dense and compact forms can never diverge.
    """
    labels = np.full(num_vertices, UNCLUSTERED, dtype=np.int64)
    labels[compact.vertices] = compact.labels
    core_mask = np.zeros(num_vertices, dtype=bool)
    core_mask[compact.vertices[: compact.num_cores]] = True
    return Clustering(labels, core_mask, mu=mu, epsilon=epsilon)


def cluster(
    graph,
    neighbor_order,
    core_order,
    mu: int,
    epsilon: float,
    *,
    scheduler: Scheduler | None = None,
    deterministic_borders: bool = True,
) -> Clustering:
    """SCAN clustering for ``(mu, epsilon)`` from the index (Algorithm 5).

    The planner's one-pair batch: a lone query is a one-step chain of
    :func:`~repro.core.sweep_query.query_many`, and does and charges
    exactly that step's work.  ``deterministic_borders`` accepts only
    ``True`` (see :func:`check_border_rule`).
    """
    # Imported here: the planner imports this module's answer type.
    from .sweep_query import query_many

    check_border_rule(deterministic_borders)
    (compact,) = query_many(
        neighbor_order, core_order, [(mu, epsilon)], scheduler=scheduler
    )
    return dense_clustering(compact, graph.num_vertices, mu, epsilon)
