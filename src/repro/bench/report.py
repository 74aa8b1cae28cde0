"""Regression gating between two runs recorded in the benchmark store.

Gating semantics (the honest-comparison contract):

* two runs are compared cell-by-cell on the shared ``(graph, cell,
  metric)`` keys; a cell regresses when it moves against its metric's
  polarity by more than the noise threshold (15% by default);
* ``gate`` only ever *fails* on two runs whose environment fingerprints
  match.  Differing fingerprints -- the committed 1-CPU-container
  ``BENCH_construction.json`` numbers against an 8-core laptop run --
  produce a structured refusal, not a verdict, because neither "faster"
  nor "slower" means anything across machine classes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .reporting import format_value
from .store import BenchStore, BenchStoreError, RunInfo

__all__ = [
    "CellDelta",
    "DEFAULT_NOISE_THRESHOLD",
    "GateResult",
    "RunComparison",
    "compare_runs",
    "gate_runs",
    "metric_polarity",
]

#: Relative change below which a moved cell is considered timer noise.
DEFAULT_NOISE_THRESHOLD = 0.15

#: Substrings marking a metric as higher-is-better; checked before the
#: lower-is-better rules because ``requests_per_second`` contains
#: ``second``.
_HIGHER_BETTER = ("per_second", "speedup", "hit_rate", "rps", "identical")
#: Substrings marking a metric as lower-is-better.
_LOWER_BETTER = ("seconds", "_ms", "bytes", "mismatch", "failures")


def metric_polarity(metric: str) -> int:
    """``+1`` if higher is better, ``-1`` if lower is better, ``0`` neutral.

    Neutral metrics (sizes, counts, configuration echoes like
    ``num_vertices`` or ``cpu_count``) are stored but never gated -- a graph growing is not a regression.
    """
    lowered = metric.lower()
    if any(token in lowered for token in _HIGHER_BETTER):
        return 1
    if any(token in lowered for token in _LOWER_BETTER):
        return -1
    return 0


@dataclass(frozen=True)
class CellDelta:
    """One shared cell's movement between two runs."""

    graph: str
    cell: str
    metric: str
    baseline: float
    candidate: float
    change: float  # relative: candidate / baseline - 1
    polarity: int

    @property
    def label(self) -> str:
        parts = [part for part in (self.graph, self.cell, self.metric) if part]
        return "/".join(parts)

    def describe(self) -> str:
        return (
            f"{self.label}: {format_value(self.baseline)} -> "
            f"{format_value(self.candidate)} ({self.change:+.1%})"
        )


@dataclass
class RunComparison:
    """Cell-level diff of two runs of the same benchmark."""

    baseline: RunInfo
    candidate: RunInfo
    threshold: float
    shared: int = 0
    regressions: list[CellDelta] = field(default_factory=list)
    improvements: list[CellDelta] = field(default_factory=list)

    @property
    def fingerprints_match(self) -> bool:
        return self.baseline.fingerprint_key == self.candidate.fingerprint_key


def compare_runs(
    store: BenchStore,
    baseline_id: int,
    candidate_id: int,
    threshold: float = DEFAULT_NOISE_THRESHOLD,
) -> RunComparison:
    """Compare every shared gated cell of two runs of one benchmark."""
    baseline = store.run(baseline_id)
    candidate = store.run(candidate_id)
    if baseline.benchmark != candidate.benchmark:
        raise BenchStoreError(
            f"runs {baseline_id} ({baseline.benchmark}) and {candidate_id} "
            f"({candidate.benchmark}) measure different benchmarks"
        )
    comparison = RunComparison(baseline, candidate, threshold)
    before = store.numeric_cells(baseline_id)
    after = store.numeric_cells(candidate_id)
    for key in before.keys() & after.keys():
        comparison.shared += 1
        polarity = metric_polarity(key[2])
        if polarity == 0:
            continue
        old, new = before[key], after[key]
        if old == 0:
            continue  # a relative threshold over zero is meaningless
        change = new / old - 1
        if abs(change) <= threshold:
            continue
        delta = CellDelta(*key, baseline=old, candidate=new,
                          change=change, polarity=polarity)
        # Moving against the polarity is a regression, with it a win.
        if change * polarity < 0:
            comparison.regressions.append(delta)
        else:
            comparison.improvements.append(delta)
    ranked = lambda delta: -abs(delta.change)
    comparison.regressions.sort(key=ranked)
    comparison.improvements.sort(key=ranked)
    return comparison


@dataclass(frozen=True)
class GateResult:
    """Outcome of one gate evaluation: PASS, FAIL, or a refusal (SKIP)."""

    status: str  # "pass" | "fail" | "skip"
    lines: tuple[str, ...]
    comparison: RunComparison | None = None

    @property
    def exit_code(self) -> int:
        return 1 if self.status == "fail" else 0

    def render(self) -> str:
        return "\n".join(self.lines)


def _describe_run(run: RunInfo) -> str:
    source = f" source={run.source}" if run.source else ""
    return (
        f"run {run.id} [{run.benchmark}] recorded {run.recorded_at}"
        f" git={run.git_hash or '?'}{source}"
    )


def gate_runs(
    store: BenchStore,
    baseline_id: int,
    candidate_id: int,
    threshold: float = DEFAULT_NOISE_THRESHOLD,
) -> GateResult:
    """Gate ``candidate`` against ``baseline``; never fail across machines."""
    comparison = compare_runs(store, baseline_id, candidate_id, threshold)
    baseline, candidate = comparison.baseline, comparison.candidate
    if not comparison.fingerprints_match:
        lines = (
            "bench-gate: SKIP -- environment fingerprints differ;"
            " refusing to compare across machine classes",
            f"  baseline : {_describe_run(baseline)}",
            f"             environment {baseline.fingerprint.describe()}",
            f"  candidate: {_describe_run(candidate)}",
            f"             environment {candidate.fingerprint.describe()}",
        )
        return GateResult("skip", lines, comparison)
    header = (
        f"environment {baseline.fingerprint.key()},"
        f" {comparison.shared} shared cells,"
        f" noise threshold {threshold:.0%}"
    )
    if comparison.regressions:
        lines = [
            f"bench-gate: FAIL -- {len(comparison.regressions)} regression(s)"
            f" ({header})",
            f"  baseline : {_describe_run(baseline)}",
            f"  candidate: {_describe_run(candidate)}",
        ]
        lines += [f"  REGRESSED {delta.describe()}" for delta in comparison.regressions]
        return GateResult("fail", tuple(lines), comparison)
    lines = [
        f"bench-gate: PASS -- no regressions ({header},"
        f" {len(comparison.improvements)} improvement(s))",
        f"  baseline : {_describe_run(baseline)}",
        f"  candidate: {_describe_run(candidate)}",
    ]
    lines += [f"  improved {delta.describe()}" for delta in comparison.improvements]
    return GateResult("pass", tuple(lines), comparison)
