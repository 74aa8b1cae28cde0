"""Command-line interface: inspect datasets and regenerate the paper's experiments.

Usage (after installation)::

    python -m repro datasets                 # Table-2-style summary of the stand-ins
    python -m repro experiments              # list available experiment drivers
    python -m repro run figure5              # regenerate one table/figure
    python -m repro run figure6 --scale tiny --datasets orkut-like webbase-like
    python -m repro cluster edges.txt --mu 5 --epsilon 0.6   # cluster your own graph

The index-artifact workflow separates the expensive build from the cheap
queries (the point of the paper's design): build once, save the columnar
artifact, then answer any number of ``(μ, ε)`` settings -- singly or as one
batched sweep -- from the saved artifact without recomputing similarities or
re-sorting the orders::

    python -m repro index build edges.txt my.scanidx --measure cosine
    python -m repro index query my.scanidx --mu 5 --epsilon 0.6
    python -m repro index query my.scanidx --pairs 3:0.4 5:0.6 5:0.7 8:0.6
    python -m repro cluster edges.txt --mu 5 --epsilon 0.6 --save my.scanidx
    python -m repro cluster --load my.scanidx --mu 8 --epsilon 0.7

Artifacts are committed crash-safely (fsync-then-rename; an interrupted
save or update leaves the old or the new artifact, never a torn mix) and
carry per-column checksums; ``index verify`` proves a saved artifact
consistent -- ``--deep`` recomputes every checksum, ``--clean`` sweeps
scratch directories left by dead writers::

    python -m repro index verify my.scanidx
    python -m repro index verify my.scanidx --deep

The ``serve`` subcommand keeps one :class:`~repro.serve.session.
ClusterSession` alive over a saved artifact and answers newline-delimited
``MU:EPSILON`` requests from stdin or a file -- repeats hit the ε-snapped
result cache, misses run the query and are cached::

    printf '5:0.6\n5:0.7\n5:0.6\n' | python -m repro serve my.scanidx
    python -m repro serve my.scanidx --requests workload.txt --deterministic

When the graph changes, ``update`` applies an edge-list delta file
(``+ u v [w]`` inserts, ``- u v`` deletes) to a saved artifact and re-saves
it -- the index is *patched* in work proportional to the affected
neighborhoods, bit-identical to rebuilding from scratch on the mutated
graph, and the artifact header records the update lineage::

    printf -- '+ 3 17\n- 0 9\n' > delta.txt
    python -m repro update my.scanidx delta.txt
    python -m repro update my.scanidx delta.txt --output patched.scanidx

The ``run`` subcommand prints the same rows the benchmark suite produces, so
a single figure can be reproduced without going through pytest.  The
``bench`` subcommand keeps a small sqlite store of benchmark payloads:
``record`` imports payload JSONs, and ``gate`` exits non-zero when a
candidate run regresses against a baseline beyond the noise threshold --
but only between runs whose environment fingerprints match::

    python -m repro bench record base.json candidate.json --db runs.sqlite
    python -m repro bench gate 1 2 --db runs.sqlite

Every long-running command (``serve``, ``index build``, ``update``) takes
``--trace FILE`` to stream schema-validated JSONL spans and a final metrics
snapshot to ``FILE`` (the network serve tier writes one sidecar per worker,
``FILE.workerN``).  The ``obs`` subcommand consumes those traces offline:
``validate`` proves every line against the span schema and ``report``
renders per-span latency tables plus the embedded metrics snapshot::

    python -m repro serve my.scanidx --requests workload.txt --trace serve.jsonl
    python -m repro obs validate serve.jsonl
    python -m repro obs report serve.jsonl
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Sequence, TextIO

from . import obs
from .bench.datasets import DATASETS, SCALES, dataset_summaries
from .bench.experiments import ALL_EXPERIMENTS
from .bench.report import DEFAULT_NOISE_THRESHOLD, gate_runs
from .bench.reporting import format_table
from .bench.store import DEFAULT_DB_NAME, BenchStore, BenchStoreError
from .core.index import ScanIndex
from .dynamic import load_delta_file
from .graphs.io import read_edge_list
from .lsh.approximate import ApproximationConfig
from .serve import wire
from .similarity.exact import BACKENDS
from .storage.format import ArtifactFormatError
from .storage.integrity import clean_stale_scratch, verify_artifact


def _load_artifact(path: str) -> ScanIndex:
    """Load an index artifact, naming it in the operator error if that fails.

    A missing, truncated, or version-mismatched artifact is an operator
    mistake, not a bug: :func:`main` reports it on stderr (no traceback)
    and the command exits with status 2.
    """
    try:
        return ScanIndex.load(path)
    except (ArtifactFormatError, OSError) as error:
        raise ValueError(f"cannot load index artifact {path!r}: {error}") from error


def _command_datasets(args: argparse.Namespace) -> int:
    rows = [
        [
            summary.name,
            DATASETS[summary.name].paper_name,
            summary.num_vertices,
            summary.num_edges,
            "weighted" if summary.weighted else "unweighted",
            summary.max_degree,
            round(summary.average_degree, 1),
        ]
        for summary in dataset_summaries(args.scale)
    ]
    print(format_table(
        ["dataset", "stands in for", "vertices", "edges", "type", "max deg", "avg deg"],
        rows,
    ))
    return 0


def _command_experiments(_: argparse.Namespace) -> int:
    rows = [
        [name, (driver.__doc__ or "").strip().splitlines()[0]]
        for name, driver in sorted(ALL_EXPERIMENTS.items())
    ]
    print(format_table(["experiment", "description"], rows))
    return 0


def _command_run(args: argparse.Namespace) -> int:
    driver = ALL_EXPERIMENTS.get(args.experiment)
    if driver is None:
        print(f"error: unknown experiment {args.experiment!r}; "
              f"available: {', '.join(sorted(ALL_EXPERIMENTS))}", file=sys.stderr)
        return 2
    kwargs = {}
    if args.experiment not in ("table1",):
        kwargs["scale"] = args.scale
    if args.datasets and args.experiment not in ("table1", "table2"):
        kwargs["datasets"] = tuple(args.datasets)
    result = driver(**kwargs)
    print(result.report())
    return 0


def _command_cluster(args: argparse.Namespace) -> int:
    if args.load is not None:
        conflicts = []
        if args.graph is not None:
            conflicts.append(f"edge-list file {args.graph!r}")
        if args.measure != "cosine":
            conflicts.append("--measure")
        if args.backend != "batch":
            conflicts.append("--backend")
        if conflicts:
            print(
                "error: --load reads the saved artifact's graph and measure; "
                f"drop {', '.join(conflicts)} or build fresh without --load",
                file=sys.stderr,
            )
            return 2
        index = _load_artifact(args.load)
        graph = index.graph
    elif args.graph is not None:
        graph = read_edge_list(args.graph)
        index = ScanIndex.build(graph, measure=args.measure, backend=args.backend)
    else:
        print("error: provide an edge-list file or --load ARTIFACT", file=sys.stderr)
        return 2
    if args.save is not None:
        path = index.save(args.save)
        print(f"saved index artifact to {path}")
    clustering = index.query(
        args.mu, args.epsilon, deterministic_borders=True, classify_hubs_and_outliers=True
    )
    print(f"graph: {graph.num_vertices} vertices, {graph.num_edges} edges")
    print(f"parameters: mu={args.mu}, epsilon={args.epsilon}, measure={index.measure}")
    print(f"clusters: {clustering.num_clusters}  "
          f"clustered vertices: {clustering.num_clustered_vertices}  "
          f"hubs: {clustering.hubs().size}  outliers: {clustering.outliers().size}")
    rows = [
        [cluster_id, members.size, " ".join(map(str, members[:12].tolist()))
         + (" ..." if members.size > 12 else "")]
        for cluster_id, members in sorted(clustering.clusters().items())
    ]
    print(format_table(["cluster", "size", "members"], rows))
    return 0


def _command_index_build(args: argparse.Namespace) -> int:
    graph = read_edge_list(args.graph)
    approximate = None
    if args.approx_samples is not None:
        if args.measure not in ("cosine", "jaccard"):
            print(
                f"error: --approx-samples supports cosine (SimHash) and "
                f"jaccard (MinHash) only, not {args.measure!r}",
                file=sys.stderr,
            )
            return 2
        approximate = ApproximationConfig(
            measure=args.measure, num_samples=args.approx_samples, seed=args.seed
        )
    index = ScanIndex.build(
        graph,
        measure=args.measure,
        backend=args.backend,
        approximate=approximate,
        jobs=args.jobs,
    )
    path = index.save(args.artifact)
    report = index.construction_report
    print(f"graph: {graph.num_vertices} vertices, {graph.num_edges} edges")
    print(f"built {index.measure} index: work={report.work:.3g} span={report.span:.3g} "
          f"wall={report.wall_seconds:.3f}s")
    print(f"saved index artifact to {path}")
    return 0


def _command_index_query(args: argparse.Namespace) -> int:
    index = _load_artifact(args.artifact)
    print(f"loaded {index.measure} index: {index.graph.num_vertices} vertices, "
          f"{index.graph.num_edges} edges")
    if args.pairs:
        pairs = [wire.parse_request(token) for token in args.pairs]
    else:
        pairs = [(args.mu, args.epsilon)]
    clusterings = index.query_many(pairs, deterministic_borders=True)
    rows = [
        [mu, epsilon, clustering.num_clusters, clustering.num_clustered_vertices]
        for (mu, epsilon), clustering in zip(pairs, clusterings)
    ]
    print(format_table(["mu", "epsilon", "clusters", "clustered vertices"], rows))
    return 0


def _command_index_verify(args: argparse.Namespace) -> int:
    if args.clean:
        removed = clean_stale_scratch(Path(args.artifact))
        for sibling in removed:
            print(f"removed stale scratch {sibling.name}")
    try:
        report = verify_artifact(args.artifact, deep=args.deep, recover=True)
    except (ArtifactFormatError, OSError) as error:
        print(f"error: artifact {args.artifact!r} fails verification: {error}",
              file=sys.stderr)
        return 2
    for line in report.lines():
        print(line)
    return 0


def _command_update(args: argparse.Namespace) -> int:
    index = _load_artifact(args.artifact)
    try:
        batch = load_delta_file(args.delta)
    except OSError as error:
        print(f"error: cannot read delta file {args.delta!r}: {error}", file=sys.stderr)
        return 2
    try:
        report = index.apply_updates(batch)
    except ValueError as error:
        # A delta that does not fit the artifact (edge already present /
        # absent, out-of-range vertex, LSH index) is an operator mistake.
        print(f"error: cannot apply delta to {args.artifact!r}: {error}", file=sys.stderr)
        return 2
    try:
        path = index.save(args.output if args.output is not None else args.artifact)
    except (ArtifactFormatError, OSError) as error:
        print(f"error: cannot save updated artifact: {error}", file=sys.stderr)
        return 2
    print(
        f"applied {report.insertions} insertions, {report.deletions} deletions"
        + (f" ({report.cancelled} opposing ops cancelled)" if report.cancelled else "")
    )
    print(
        f"recomputed {report.affected_edges} affected edges across "
        f"{report.affected_vertices} vertices in {report.wall_seconds:.3f}s"
    )
    print(
        f"graph now: {index.graph.num_vertices} vertices, {index.graph.num_edges} "
        f"edges ({len(index.update_lineage)} update batches in lineage)"
    )
    print(f"saved updated artifact to {path}")
    return 0


def _serve_network(args: argparse.Namespace) -> int:
    """The concurrent serving tier behind ``repro serve --port``.

    SIGTERM triggers a graceful drain: the listener closes, in-flight
    requests finish inside the drain deadline, worker metric snapshots are
    flushed, and the process exits 0 -- the contract a supervisor
    (systemd, Kubernetes) relies on for zero-dropped-request restarts.
    """
    import asyncio
    import signal

    from .serve.server import ClusterServer

    _load_artifact(args.artifact)  # validation only; the server and workers mmap it
    overrides = {
        name: value
        for name, value in (
            ("request_deadline", args.deadline),
            ("max_inflight", args.max_inflight),
            ("max_queue_depth", args.max_queue_depth),
            ("drain_deadline", args.drain_deadline),
            ("probe_interval", args.probe_interval),
        )
        if value is not None
    }
    server = ClusterServer(
        args.artifact,
        workers=args.workers,
        cache_size=args.cache_size,
        deterministic=args.deterministic,
        **overrides,
    )

    async def run() -> None:
        host, port = await server.start(args.host, args.port)
        loop = asyncio.get_running_loop()
        try:
            loop.add_signal_handler(signal.SIGTERM, server.request_drain)
        except (NotImplementedError, RuntimeError):  # pragma: no cover
            pass  # platforms without signal handler support still serve
        print(
            f"listening on {host}:{port} ({server.num_workers} workers)",
            file=sys.stderr,
            flush=True,
        )
        try:
            await server.serve_forever()
        except asyncio.CancelledError:
            # serve_forever is cancelled when the listener closes -- which
            # is exactly what a drain (SIGTERM or !drain) does first.
            pass
        finally:
            if server._drain_task is not None:
                await server._drain_task
                print(
                    f"drained: served {server.served} requests, exiting",
                    file=sys.stderr,
                )
            await server.close()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        print("shutting down", file=sys.stderr)
    return 0


def _command_serve_client(args: argparse.Namespace) -> int:
    """Replay request lines against a running server (``repro serve-client``)."""
    from .serve.client import ServeClient

    host, separator, port_text = args.address.rpartition(":")
    if not separator or not port_text.isdigit():
        print(f"error: expected HOST:PORT, got {args.address!r}", file=sys.stderr)
        return 2
    if args.requests is not None:
        try:
            stream: TextIO = open(args.requests)
        except OSError as error:
            print(f"error: cannot read requests from {args.requests!r}: {error}",
                  file=sys.stderr)
            return 2
    else:
        stream = sys.stdin
    try:
        with ServeClient(host, int(port_text), timeout=args.timeout,
                         retries=args.retries) as client:
            for line in stream:
                stripped = line.strip()
                if not stripped or stripped.startswith("#"):
                    continue
                print(client.request(stripped), flush=True)
    finally:
        if stream is not sys.stdin:
            stream.close()
    return 0


def _command_serve(args: argparse.Namespace) -> int:
    from .serve.worker import keep_query_scratch_on_the_heap

    # Both modes answer misses in this process too (the stdin loop; the
    # front end's degraded fallback), so keep their scratch as workers do.
    keep_query_scratch_on_the_heap()
    if args.port is not None:
        return _serve_network(args)
    if args.workers != 1:
        print("error: --workers requires --port (the stdin loop is one process)",
              file=sys.stderr)
        return 2
    index = _load_artifact(args.artifact)
    if args.requests is not None:
        try:
            stream: TextIO = open(args.requests)
        except OSError as error:
            print(f"error: cannot read requests from {args.requests!r}: {error}",
                  file=sys.stderr)
            return 2
    else:
        stream = sys.stdin
    session = index.session(cache_size=args.cache_size)
    capacity = args.cache_size if args.cache_size > 0 else "disabled"
    print(
        f"serving {index.measure} index: {index.graph.num_vertices} vertices, "
        f"{index.graph.num_edges} edges, cache capacity {capacity}",
        file=sys.stderr,
    )
    failures = 0
    try:
        for line in stream:
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            try:
                mu, epsilon = wire.parse_request(line)
                result = session.serve(
                    mu, epsilon, deterministic_borders=args.deterministic
                )
            except ValueError as error:
                failures += 1
                print(f"error: {error}", file=sys.stderr)
                continue
            # flush per response: an interactive client driving the loop over
            # a pipe waits for each answer before sending the next request.
            # The line format is owned by serve.wire so the network tier
            # answers with the exact same bytes.
            print(wire.format_response(result), flush=True)
    finally:
        if stream is not sys.stdin:
            stream.close()
        # The final snapshot (written by main()'s finalise) should carry the
        # session's request/cache totals, exactly as the worker loop does.
        if obs.on():
            session.sync_metrics()
    stats = session.stats()
    print(
        f"served {stats['served']} requests: {stats['cache_hits']} cache hits "
        f"({stats['hit_rate']:.0%})",
        file=sys.stderr,
    )
    return 1 if failures else 0


def _command_bench_record(args: argparse.Namespace) -> int:
    with BenchStore(args.db) as store:
        for path in args.files:
            try:
                run_id = store.import_file(path, source=args.source or Path(path).name)
            except BenchStoreError as error:
                print(f"error: cannot record {path!r}: {error}", file=sys.stderr)
                return 2
            run = store.run(run_id)
            print(
                f"recorded run {run_id} [{run.benchmark}] environment "
                f"{run.fingerprint_key} from {path}"
            )
    return 0


def _command_bench_gate(args: argparse.Namespace) -> int:
    if not Path(args.db).exists():
        # Refuse to invent an empty store just to report unknown run ids.
        print(
            f"error: no benchmark store at {args.db!r}; record runs first "
            "(repro bench record FILE...)",
            file=sys.stderr,
        )
        return 2
    with BenchStore(args.db) as store:
        result = gate_runs(store, args.baseline, args.candidate, args.threshold)
    print(result.render())
    return result.exit_code


def _command_obs_report(args: argparse.Namespace) -> int:
    # Submodule import: repro.obs deliberately does not re-export report.
    from .obs import report as obs_report
    from .obs.schema import TraceSchemaError

    try:
        rendered = obs_report.render_trace_report(args.trace_file)
    except OSError as error:
        print(f"error: cannot read trace {args.trace_file!r}: {error}",
              file=sys.stderr)
        return 2
    except TraceSchemaError as error:
        print(f"error: invalid trace: {error}", file=sys.stderr)
        return 2
    print(rendered)
    return 0


def _command_obs_validate(args: argparse.Namespace) -> int:
    from .obs.schema import TraceSchemaError, validate_trace_path

    try:
        counts = validate_trace_path(args.trace_file)
    except OSError as error:
        print(f"error: cannot read trace {args.trace_file!r}: {error}",
              file=sys.stderr)
        return 2
    except TraceSchemaError as error:
        print(f"invalid: {error}", file=sys.stderr)
        return 1
    total = sum(counts.values())
    breakdown = ", ".join(
        f"{counts[kind]} {kind}s" for kind in ("span", "event", "snapshot")
        if counts.get(kind)
    )
    print(f"valid: {args.trace_file} ({total} lines: {breakdown or 'empty'})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser behind ``python -m repro``."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Parallel index-based structural graph clustering (SCAN) reproduction",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    def add_trace_argument(subparser):
        subparser.add_argument(
            "--trace", metavar="FILE", default=None,
            help="write schema-validated JSONL spans/events plus a final "
                 "metrics snapshot to FILE (inspect with 'repro obs report')",
        )

    datasets = subparsers.add_parser("datasets", help="summarise the stand-in datasets")
    datasets.add_argument("--scale", choices=SCALES, default="bench")
    datasets.set_defaults(handler=_command_datasets)

    experiments = subparsers.add_parser("experiments", help="list experiment drivers")
    experiments.set_defaults(handler=_command_experiments)

    run = subparsers.add_parser("run", help="run one table/figure experiment")
    run.add_argument("experiment", help="experiment name, e.g. figure5")
    run.add_argument("--scale", choices=SCALES, default="bench")
    run.add_argument("--datasets", nargs="*", default=None,
                     help="subset of dataset names (default: all six)")
    run.set_defaults(handler=_command_run)

    bench = subparsers.add_parser(
        "bench", help="record benchmark payloads and gate one run against another",
    )
    bench_subparsers = bench.add_subparsers(dest="bench_command", required=True)

    def add_db_argument(subparser):
        subparser.add_argument(
            "--db", type=Path, default=Path(DEFAULT_DB_NAME),
            help=f"benchmark store path (default: ./{DEFAULT_DB_NAME})",
        )

    bench_record = bench_subparsers.add_parser(
        "record", help="import benchmark payload JSON files into the store"
    )
    bench_record.add_argument("files", nargs="+", metavar="FILE",
                              help="payload files, e.g. BENCH_serving.json")
    bench_record.add_argument("--source", default=None,
                              help="provenance label (default: the file name)")
    add_db_argument(bench_record)
    bench_record.set_defaults(handler=_command_bench_record)

    bench_gate = bench_subparsers.add_parser(
        "gate",
        help="fail (exit 1) on regressions between two same-environment "
             "runs; refuse with a warning (exit 0) across machine classes",
    )
    bench_gate.add_argument("baseline", type=int, help="baseline run id")
    bench_gate.add_argument("candidate", type=int, help="candidate run id")
    add_db_argument(bench_gate)
    bench_gate.add_argument(
        "--threshold", type=float, default=DEFAULT_NOISE_THRESHOLD,
        help="relative change below which a moved cell is timer noise "
             f"(default: {DEFAULT_NOISE_THRESHOLD})",
    )
    bench_gate.set_defaults(handler=_command_bench_gate)

    cluster = subparsers.add_parser("cluster", help="cluster an edge-list file with SCAN")
    cluster.add_argument("graph", nargs="?", default=None,
                         help="path to an edge-list file (u v [weight] per line); "
                              "omit when loading a saved artifact with --load")
    cluster.add_argument("--mu", type=int, default=5)
    cluster.add_argument("--epsilon", type=float, default=0.6)
    cluster.add_argument("--measure", choices=("cosine", "jaccard", "dice"), default="cosine")
    cluster.add_argument("--backend", choices=BACKENDS, default="batch",
                         help="exact similarity engine (default: the vectorised batch engine)")
    cluster.add_argument("--save", metavar="ARTIFACT", default=None,
                         help="save the built index as a columnar artifact directory")
    cluster.add_argument("--load", metavar="ARTIFACT", default=None,
                         help="load a saved index artifact instead of building")
    cluster.set_defaults(handler=_command_cluster)

    index = subparsers.add_parser(
        "index", help="build or query a persistent columnar index artifact"
    )
    index_subparsers = index.add_subparsers(dest="index_command", required=True)

    index_build = index_subparsers.add_parser(
        "build", help="build a SCAN index from an edge list and save it"
    )
    index_build.add_argument("graph", help="path to an edge-list file")
    index_build.add_argument("artifact", help="output artifact directory")
    index_build.add_argument("--measure", choices=("cosine", "jaccard", "dice"),
                             default="cosine")
    index_build.add_argument("--backend", choices=BACKENDS, default="batch")
    index_build.add_argument("--approx-samples", type=int, default=None,
                             help="approximate similarities with this many LSH samples")
    index_build.add_argument("--seed", type=int, default=0,
                             help="seed of the LSH sketching randomness")
    index_build.add_argument("--jobs", type=int, default=1,
                             help="worker processes for the construction hot "
                                  "spots (0 = all cores; default 1 = serial; "
                                  "any count builds a bit-identical index)")
    add_trace_argument(index_build)
    index_build.set_defaults(handler=_command_index_build)

    index_query = index_subparsers.add_parser(
        "query", help="answer (mu, epsilon) queries from a saved artifact"
    )
    index_query.add_argument("artifact", help="artifact directory written by 'index build'")
    index_query.add_argument("--mu", type=int, default=5)
    index_query.add_argument("--epsilon", type=float, default=0.6)
    index_query.add_argument("--pairs", nargs="+", metavar="MU:EPSILON", default=None,
                             help="batch of settings answered by one planned sweep, "
                                  "e.g. --pairs 3:0.4 5:0.6 5:0.7")
    index_query.set_defaults(handler=_command_index_query)

    index_verify = index_subparsers.add_parser(
        "verify", help="prove a saved artifact consistent (header, shapes, "
                       "checksums) and report stale scratch"
    )
    index_verify.add_argument("artifact", help="artifact directory to verify")
    index_verify.add_argument("--deep", action="store_true",
                              help="recompute every column's CRC-32 against "
                                   "the header (reads all stored bytes)")
    index_verify.add_argument("--clean", action="store_true",
                              help="remove stale scratch directories left by "
                                   "dead writers before verifying")
    index_verify.set_defaults(handler=_command_index_verify)

    update = subparsers.add_parser(
        "update",
        help="apply an edge insert/delete delta to a saved artifact in place",
    )
    update.add_argument("artifact", help="artifact directory written by 'index build'")
    update.add_argument("delta", help="delta file: '+ u v [weight]' inserts, '- u v' deletes")
    update.add_argument("--output", metavar="ARTIFACT", default=None,
                        help="write the patched artifact here instead of in place")
    add_trace_argument(update)
    update.set_defaults(handler=_command_update)

    serve = subparsers.add_parser(
        "serve",
        help="answer a stream of (mu, epsilon) requests from a saved artifact",
    )
    serve.add_argument("artifact", help="artifact directory written by 'index build'")
    serve.add_argument("--requests", metavar="FILE", default=None,
                       help="newline-delimited MU:EPSILON requests "
                            "(default: read from stdin)")
    serve.add_argument("--cache-size", type=int, default=256,
                       help="result-cache capacity; zero or negative disables "
                            "caching (default: 256)")
    serve.add_argument("--deterministic", action="store_true",
                       help="deterministic border attachment "
                            "(most similar core, ties to lower id)")
    serve.add_argument("--port", type=int, default=None, metavar="PORT",
                       help="serve over TCP instead of stdin: listen on PORT "
                            "(0 = ephemeral) with a pool of worker processes")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address for --port (default: 127.0.0.1)")
    serve.add_argument("--workers", type=int, default=1, metavar="N",
                       help="worker processes for --port mode, each holding "
                            "a session over the same mmapped artifact "
                            "(default: 1)")
    serve.add_argument("--deadline", type=float, default=None, metavar="SECONDS",
                       help="per-request deadline before dispatch hedges to "
                            "the next worker (--port mode; default: 5)")
    serve.add_argument("--max-inflight", type=int, default=None, metavar="N",
                       help="concurrent-request high-water mark; past it "
                            "requests answer 'error: overloaded (shed)' "
                            "(--port mode; default: 64)")
    serve.add_argument("--max-queue-depth", type=int, default=None, metavar="N",
                       help="outstanding requests allowed per worker pipe "
                            "before it is skipped (--port mode; default: 8)")
    serve.add_argument("--drain-deadline", type=float, default=None,
                       metavar="SECONDS",
                       help="seconds granted to in-flight requests on SIGTERM "
                            "or !drain (--port mode; default: 5)")
    serve.add_argument("--probe-interval", type=float, default=None,
                       metavar="SECONDS",
                       help="first recovery-probe delay while degraded, "
                            "doubling per failed probe (--port mode; "
                            "default: 1)")
    add_trace_argument(serve)
    serve.set_defaults(handler=_command_serve)

    serve_client = subparsers.add_parser(
        "serve-client",
        help="replay MU:EPSILON request lines against a running serve --port "
             "server",
    )
    serve_client.add_argument("address", metavar="HOST:PORT",
                              help="address of a running 'repro serve --port' "
                                   "server")
    serve_client.add_argument("--requests", metavar="FILE", default=None,
                              help="newline-delimited request lines "
                                   "(default: read from stdin)")
    serve_client.add_argument("--timeout", type=float, default=60.0,
                              metavar="SECONDS",
                              help="socket timeout per request (default: 60)")
    serve_client.add_argument("--retries", type=int, default=0, metavar="N",
                              help="reconnect-and-resend attempts for "
                                   "idempotent requests; control lines are "
                                   "never retried (default: 0)")
    serve_client.set_defaults(handler=_command_serve_client)

    obs_parser = subparsers.add_parser(
        "obs", help="validate and report JSONL traces written with --trace"
    )
    obs_subparsers = obs_parser.add_subparsers(dest="obs_command", required=True)

    obs_report = obs_subparsers.add_parser(
        "report", help="render per-span latency tables and the final metrics "
                       "snapshot of a trace file"
    )
    obs_report.add_argument("trace_file", metavar="TRACE",
                            help="JSONL trace written with --trace")
    obs_report.set_defaults(handler=_command_obs_report)

    obs_validate = obs_subparsers.add_parser(
        "validate", help="check every trace line against the span schema "
                         "(exit 1 on the first violation)"
    )
    obs_validate.add_argument("trace_file", metavar="TRACE",
                              help="JSONL trace written with --trace")
    obs_validate.set_defaults(handler=_command_obs_validate)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point used by ``python -m repro`` and the ``repro`` console script.

    The one operator-error boundary: bad parameters, missing or malformed
    input files and unreachable servers surface as ``ValueError`` or
    ``OSError`` from whichever layer detects them, and end here as a single
    ``error: ...`` line on stderr with exit status 2, never a traceback.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    trace_path = getattr(args, "trace", None)
    try:
        if trace_path is None:
            return args.handler(args)
        # One tracer for the whole command: the handler (and, through the
        # process-global runtime, every instrumented layer beneath it)
        # streams into trace_path, and finalise() appends the final metrics
        # snapshot so the file is self-contained even if the command failed
        # midway.
        obs.configure(trace_path)
        try:
            return args.handler(args)
        finally:
            obs.finalise()
    except (OSError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
