"""repro: parallel index-based structural graph clustering (SCAN) and its approximation.

A from-scratch Python reproduction of Tseng, Dhulipala and Shun,
"Parallel Index-Based Structural Graph Clustering and Its Approximation"
(SIGMOD 2021).  The top-level package re-exports the pieces most users need:

* :class:`~repro.core.index.ScanIndex` -- build the index once, query
  clusterings for any ``(mu, epsilon)``;
* :class:`~repro.lsh.approximate.ApproximationConfig` -- switch index
  construction to LSH-approximated similarities;
* :class:`~repro.core.clustering.Clustering` -- the query result type;
* :class:`~repro.dynamic.UpdateBatch` -- batched edge insertions/deletions
  applied in place via :meth:`ScanIndex.apply_updates
  <repro.core.index.ScanIndex.apply_updates>`, bit-identical to a rebuild
  on the mutated graph at a fraction of the cost;
* the graph constructors and generators under :mod:`repro.graphs`.

Similarity backends
-------------------
:func:`~repro.similarity.exact.compute_similarities` (and
``ScanIndex.build``) accept a ``backend`` selecting the exact similarity
engine:

* ``"batch"`` (default) -- the fully vectorised engine
  (:mod:`repro.similarity.batch`): chunked ``(arc, candidate)`` pair
  expansion over the degree-oriented CSR, one ``np.searchsorted`` per chunk
  and bincount scatter-adds.  Zero per-arc Python iteration; the fastest
  choice at every graph size.  Charges the merge engine's ``O(m^{3/2})``
  work / ``O(log n)`` span.
* ``"merge"`` -- the scalar reference for ``batch``: per-arc sorted-list
  merges on the degree orientation (Section 6.1).  Identical scheduler
  charges, interpreter-speed execution; kept for cross-checking.
* ``"hash"`` -- Algorithm 1 verbatim with lazily built per-vertex hash
  tables; the ``O(α m)`` work-bound reference exercised by tests.
* ``"matmul"`` -- numerators via the squared weight matrix ``W²``
  (Section 4.1.1); wins only on small dense graphs where ``n²`` memory is
  acceptable.

See the :mod:`repro.similarity.exact` module docstring for the full matrix
with work bounds, and ``benchmarks/bench_ablation_backends.py`` for the
work each backend is charged on the paper's stand-in datasets.
"""

from .core.clustering import UNCLUSTERED, Clustering
from .core.index import ScanIndex
from .dynamic import UpdateBatch, UpdateReport
from .lsh.approximate import ApproximationConfig, compute_approximate_similarities
from .serve import ClusterSession, ServedResult
from .similarity.exact import EdgeSimilarities, compute_similarities
from .storage import (
    ArtifactFormatError,
    ArtifactIntegrityError,
    IndexArtifact,
    verify_artifact,
)

__version__ = "1.4.0"

__all__ = [
    "UNCLUSTERED",
    "Clustering",
    "ClusterSession",
    "ScanIndex",
    "ServedResult",
    "ApproximationConfig",
    "ArtifactFormatError",
    "ArtifactIntegrityError",
    "verify_artifact",
    "EdgeSimilarities",
    "IndexArtifact",
    "UpdateBatch",
    "UpdateReport",
    "compute_similarities",
    "compute_approximate_similarities",
    "__version__",
]
