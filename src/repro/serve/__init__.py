"""The query-serving subsystem: persistent sessions over a loaded index.

``repro.serve`` turns a loaded :class:`~repro.core.index.ScanIndex` into a
long-lived serving loop.  Its three pieces compose one pipeline per request:

1. :class:`~repro.serve.snapping.EpsilonSnapper` canonicalizes the query's
   float ε to the stored similarity-rank boundary it resolves to;
2. :class:`~repro.serve.cache.ResultCache` -- a bounded LRU keyed by
   ``(μ, snapped-ε)``, owned by one session -- answers repeats
   without touching the index;
3. on a miss, :class:`~repro.serve.session.ClusterSession` computes the
   compact clustering as the query planner's one-pair batch
   (:func:`~repro.core.sweep_query.query_many`) and caches it.

On top of the session sits the concurrent tier: a
:class:`~repro.serve.server.ClusterServer` front end routes newline-
delimited socket requests (:mod:`repro.serve.wire`) across N forked worker
processes (:mod:`repro.serve.worker`), each holding its own session over
the same mmapped artifact, with cache-affinity routing and supervised
restarts; :mod:`repro.serve.client` replays request streams against it.

Entry points: :meth:`ScanIndex.session() <repro.core.index.ScanIndex.
session>` in code, ``python -m repro serve ARTIFACT`` (add ``--port`` /
``--workers`` for the concurrent tier) on the command line, and the
``serve-hot`` / ``serve-churn`` workloads of ``perfbench/run.py`` for
measured hit and miss latencies against a running server.
"""

from .cache import ResultCache
from .client import ServeClient, ServeClientError, replay
from .server import ClusterServer, DegradedServingWarning, route
from .session import ClusterSession, ServedResult
from .snapping import EpsilonSnapper

__all__ = [
    "ClusterServer",
    "ClusterSession",
    "DegradedServingWarning",
    "EpsilonSnapper",
    "ResultCache",
    "ServeClient",
    "ServeClientError",
    "ServedResult",
    "replay",
    "route",
]
