"""Parameter sweeps over the SCAN parameter grid Σ (Equation 1 of the paper).

Users of SCAN do not know good values of (μ, ε) in advance; the whole point
of the index is that trying many settings is cheap.  The paper's quality
experiments search the grid

    Σ = {2, 4, 8, ..., 2^18} × {0.01, 0.02, ..., 0.99}

for the modularity-maximising setting.  These helpers reproduce that sweep
(with the μ range clipped to the graph's maximum closed degree, above which
no cores exist).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from ..core.clustering import UNCLUSTERED, Clustering
from ..core.index import ScanIndex
from ..core.query import check_setting
from ..core.sweep_query import query_many
from ..graphs.graph import Graph
from .modularity import modularity


def mu_grid(max_mu: int, *, upper_exponent: int = 18) -> list[int]:
    """Powers of two ``2, 4, 8, ...`` clipped to ``min(2^upper_exponent, max_mu)``."""
    values: list[int] = []
    mu = 2
    while mu <= min(max_mu, 1 << upper_exponent):
        values.append(mu)
        mu <<= 1
    return values or [2]


def epsilon_grid(step: float = 0.01) -> np.ndarray:
    """The ε grid ``{step, 2·step, ..., < 1}`` (default 0.01 .. 0.99)."""
    if not 0.0 < step < 1.0:
        raise ValueError("step must lie in (0, 1)")
    count = int(round((1.0 - step) / step))
    return np.round(np.arange(1, count + 1) * step, 10)


def parameter_grid(
    graph: Graph,
    *,
    epsilon_step: float = 0.01,
    upper_exponent: int = 18,
) -> list[tuple[int, float]]:
    """All ``(μ, ε)`` pairs of the paper's grid Σ applicable to ``graph``."""
    max_mu = graph.max_degree + 1
    return [
        (mu, float(eps))
        for mu in mu_grid(max_mu, upper_exponent=upper_exponent)
        for eps in epsilon_grid(epsilon_step)
    ]


@dataclass(frozen=True)
class SweepEntry:
    """Quality of one parameter setting visited by a sweep."""

    mu: int
    epsilon: float
    modularity: float
    num_clusters: int
    num_clustered: int


@dataclass
class SweepResult:
    """Outcome of a modularity sweep over a parameter grid."""

    entries: list[SweepEntry]

    @property
    def best(self) -> SweepEntry:
        """Entry with the highest modularity (ties to the earliest entry)."""
        if not self.entries:
            raise ValueError("sweep produced no entries")
        return max(self.entries, key=lambda entry: entry.modularity)

    def best_parameters(self) -> tuple[int, float]:
        """The modularity-maximising ``(μ, ε)``."""
        best = self.best
        return best.mu, best.epsilon


def modularity_sweep(
    index: ScanIndex,
    *,
    parameters: Iterable[tuple[int, float]] | None = None,
    epsilon_step: float = 0.05,
) -> SweepResult:
    """Query the index over a parameter grid and score each clustering.

    ``epsilon_step`` defaults to a coarser grid than the paper's 0.01 so that
    laptop-scale runs stay fast; pass ``parameters=parameter_grid(graph)``
    for the full Σ.

    The grid is answered through :func:`~repro.core.sweep_query.query_many`
    one μ at a time, covering all of that μ's ε -- the planner's unit of
    reuse (one μ's settings are one chain in descending ε over one
    union-find forest, so each arc is gathered and unioned once) -- and each
    compact answer is scored through one reused label buffer (its vertices
    set, scored, reset), so peak memory stays at one μ's compact answers
    plus one n-label array.  A setting without cores leaves every vertex a
    singleton; it is scored once per sweep, by one :func:`modularity` call
    on the all-unclustered buffer, and takes no query.  ``(μ, ε)`` has a
    core exactly when the largest ``CO[μ]`` threshold is at least ε, so
    spotting such a setting is one lookup.
    """
    graph = index.graph
    if parameters is None:
        parameters = parameter_grid(graph, epsilon_step=epsilon_step)
    parameters = list(parameters)
    chains: dict[int, list[int]] = {}
    for position, (mu, epsilon) in enumerate(parameters):
        check_setting(int(mu), float(epsilon))
        chains.setdefault(int(mu), []).append(position)
    entries: list[SweepEntry | None] = [None] * len(parameters)
    labels = np.full(graph.num_vertices, UNCLUSTERED, dtype=np.int64)
    without_cores = modularity(graph, labels)
    for mu, positions in chains.items():
        _, thresholds = index.core_order.candidates(mu)
        top = float(thresholds[0]) if thresholds.size else -np.inf
        queried = []
        for position in positions:
            mu_value, epsilon = parameters[position]
            if top >= float(epsilon):
                queried.append(position)
            else:
                entries[position] = SweepEntry(
                    mu=mu_value, epsilon=epsilon, modularity=without_cores,
                    num_clusters=0, num_clustered=0,
                )
        answers = query_many(
            index.neighbor_order, index.core_order,
            [parameters[position] for position in queried],
        )
        for position, answer in zip(queried, answers):
            mu_value, epsilon = parameters[position]
            labels[answer.vertices] = answer.labels
            score = modularity(graph, labels)
            labels[answer.vertices] = UNCLUSTERED
            entries[position] = SweepEntry(
                mu=mu_value,
                epsilon=epsilon,
                modularity=score,
                num_clusters=answer.num_clusters,
                num_clustered=int(answer.vertices.shape[0]),
            )
    return SweepResult(entries)  # type: ignore[arg-type]


def best_clustering(
    index: ScanIndex,
    *,
    parameters: Sequence[tuple[int, float]] | None = None,
    epsilon_step: float = 0.05,
) -> tuple[Clustering, SweepEntry]:
    """The modularity-maximising clustering of an index over a grid."""
    sweep = modularity_sweep(index, parameters=parameters, epsilon_step=epsilon_step)
    best = sweep.best
    clustering = index.query(best.mu, best.epsilon)
    return clustering, best
