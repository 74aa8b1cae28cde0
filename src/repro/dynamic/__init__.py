"""The dynamic-update subsystem: batched edge mutations on a built index.

The index of this library (similarity scores + the two sorted orders) is
built once and queried many times -- but real graphs change.  A full
rebuild after every change pays the ``O(m^{3/2})`` triangle work and the
global sorts again; ``repro.dynamic`` repairs the index instead, in work
proportional to the *affected neighborhoods*: inserting or deleting edge
``(u, v)`` can only change similarities of edges incident to ``u`` or
``v``, and only the sorted runs of those edges' endpoints.

Three pieces:

* :class:`~repro.dynamic.updates.UpdateBatch` -- a validated, deduplicated
  delta (opposing ops cancel) that knows its touched vertices and, per
  graph, its affected edge set;
* :func:`~repro.dynamic.patch.apply_updates` -- the patcher: splices the
  CSR graph and the canonical edge numbering, recomputes only the affected
  similarities (via the subset engine of :mod:`repro.similarity.batch`),
  and repairs both orders by merging sorted runs -- **bit-identical** to a
  from-scratch rebuild on the mutated graph;
* :func:`~repro.dynamic.updates.load_delta_file` -- the ``+ u v`` /
  ``- u v`` delta format of the ``repro update`` CLI.

Entry points: :meth:`ScanIndex.apply_updates
<repro.core.index.ScanIndex.apply_updates>` in code, ``python -m repro
update ARTIFACT DELTA`` against a saved artifact.  ``perfbench/run.py``
times one update batch end to end; ``benchmarks/bench_strategies.py``
times the two order-repair strategies against each other.
"""

from .patch import apply_updates
from .updates import UpdateBatch, UpdateReport, load_delta_file

__all__ = ["UpdateBatch", "UpdateReport", "apply_updates", "load_delta_file"]
