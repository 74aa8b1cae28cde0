"""Open-loop updater of the ``serve-churn`` workload (its own process).

Runs beside the reader so that its numpy work does not share the reader's
interpreter lock.  Protocol over stdin/stdout, one line each way:

1. loads the served artifact into memory and prints ``ready``;
2. reads ``start T0 DEADLINE`` (``time.monotonic`` seconds, which every
   process on the machine shares) and fires batch ``k`` at
   ``T0 + k * INTERVAL`` while that lies before ``DEADLINE``: apply the
   40-op batch in memory, save it over the served artifact, send
   ``!invalidate`` and wait for the ack;
3. writes the final edge list next to the artifact and prints one JSON
   line with every batch's timings and any errors.

Run only by ``serving.py``::

    python3 perfbench/updater.py ARTIFACT PORT SEED EDGES_OUT
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import numpy as np

import inputs

#: One batch per second: the open-loop rate of the churn workload.
INTERVAL_S = 1.0


def main(argv: list[str]) -> int:
    from repro import ScanIndex
    from repro.serve.client import ServeClient

    artifact, port, seed, edges_out = Path(argv[0]), int(argv[1]), int(argv[2]), Path(argv[3])
    index = ScanIndex.load(artifact, mmap_mode=None)
    rng = np.random.default_rng([seed, 4])
    print("ready", flush=True)
    _, start, deadline = sys.stdin.readline().split()
    start, deadline = float(start), float(deadline)
    batches, errors = [], []
    k = 0
    while start + k * INTERVAL_S < deadline:
        scheduled = start + k * INTERVAL_S
        k += 1
        time.sleep(max(scheduled - time.monotonic(), 0.0))
        began = time.monotonic()
        graph = index.graph
        edge_u, edge_v = graph.edge_list()
        insertions, deletions = inputs.update_batch(rng, graph.num_vertices, edge_u, edge_v)
        try:
            t0 = time.perf_counter()
            report = index.apply_updates(insertions=insertions, deletions=deletions)
            t1 = time.perf_counter()
            index.save(artifact)
            t2 = time.perf_counter()
            with ServeClient("127.0.0.1", port) as client:
                ack = client.request("!invalidate")
            t3 = time.perf_counter()
        except (OSError, ValueError) as error:
            errors.append(f"batch {k - 1}: {error!r}")
            break
        if not ack.startswith("invalidated generation="):
            errors.append(f"batch {k - 1}: unexpected ack {ack!r}")
        batches.append({
            "lateness_ms": (began - scheduled) * 1e3,
            "latency_ms": (time.monotonic() - scheduled) * 1e3,
            "apply_ms": (t1 - t0) * 1e3,
            "save_s": t2 - t1,
            "invalidate_ms": (t3 - t2) * 1e3,
            "affected_edges": report.affected_edges,
            "affected_vertices": report.affected_vertices,
        })
    edge_u, edge_v = index.graph.edge_list()
    inputs.write_edge_list(np.column_stack([edge_u, edge_v]), edges_out)
    print(json.dumps({"batches": batches, "errors": errors}), flush=True)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
