"""Update batches: validated, canonicalized edge insert/delete deltas.

An :class:`UpdateBatch` is the unit of mutation the dynamic subsystem
applies to a built index.  Raw ``(u, v)`` pairs arrive in whatever shape a
caller produces -- unordered endpoints, duplicates, opposing insert/delete
ops for the same edge -- and the batch constructor normalises them once so
the patcher (:mod:`repro.dynamic.patch`) can assume a clean delta:

* endpoints are canonicalized to ``u < v`` (self-loops are rejected -- the
  library indexes simple graphs only);
* duplicate insertions collapse keeping the *last* weight seen, matching
  the edge-list builder convention of :mod:`repro.graphs.builders`;
  duplicate deletions collapse to one;
* an edge appearing on **both** sides cancels to a no-op and is dropped
  from both (the count is kept in :attr:`UpdateBatch.num_cancelled`) --
  unless the insertions carry explicit weights, in which case the pair is
  kept and applied as an atomic **reweight** (delete + re-insert is the
  only way to change a weighted edge's weight, since inserting a present
  edge is otherwise rejected).

The batch also answers the *affected-set* question the whole subsystem is
built around: inserting or deleting edge ``(u, v)`` changes the closed
neighborhood of ``u`` and ``v`` only, so the similarity score of an edge
can change **iff** it is incident to a touched endpoint
(:meth:`UpdateBatch.touched_vertices`, :meth:`UpdateBatch.affected_edges`).
Everything downstream -- the subset similarity recompute, the order
patchers, the benchmark's work accounting -- keys off that contract.

:func:`load_delta_file` reads the on-disk delta format the ``repro
update`` CLI consumes: one op per line, ``+ u v [weight]`` to insert and
``- u v`` to delete, with ``#``/``%`` comment lines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..parallel.primitives import segmented_ranges, sorted_unique

__all__ = ["UpdateBatch", "UpdateReport", "load_delta_file"]

_EMPTY_IDS = np.zeros(0, dtype=np.int64)


@dataclass(frozen=True)
class UpdateBatch:
    """A canonicalized batch of edge insertions and deletions.

    Build instances with :meth:`from_edges`; the constructor fields are the
    already-normalised arrays (``u < v``, lexicographically sorted, unique,
    no edge on both sides).

    Attributes
    ----------
    insert_u, insert_v:
        Endpoints of the edges to insert, canonical and lex-sorted.
    insert_weights:
        Per-insertion weights aligned with the endpoints, or ``None`` when
        no insertion carried an explicit weight.
    delete_u, delete_v:
        Endpoints of the edges to delete, canonical and lex-sorted.
    num_cancelled:
        Number of edges that appeared on both sides and cancelled out.
    """

    insert_u: np.ndarray
    insert_v: np.ndarray
    insert_weights: np.ndarray | None
    delete_u: np.ndarray
    delete_v: np.ndarray
    num_cancelled: int = 0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(
        cls,
        insertions=(),
        deletions=(),
    ) -> "UpdateBatch":
        """Canonicalize raw insertion/deletion pairs into a batch.

        Parameters
        ----------
        insertions:
            Iterable of ``(u, v)`` or ``(u, v, weight)`` items (mixing the
            two is allowed; missing weights default to 1.0 once any item
            carries one).
        deletions:
            Iterable of ``(u, v)`` pairs.

        Raises ``ValueError`` on self-loops, negative vertex ids or NaN or
        infinite weights.
        """
        ins_u, ins_v, ins_w, explicit = _canonical_insertions(insertions)
        del_u, del_v = _canonical_deletions(deletions)

        # Opposing ops on the same edge cancel: the batch's net effect on
        # that edge is nothing, so it is dropped from both sides.  Not so
        # when the *insertion itself* carries an explicit weight -- there a
        # delete + re-insert pair is the (only) way to express a reweight,
        # so both ops are kept and applied as one atomic replace.  The
        # explicitness is tracked per insertion: an unrelated weighted op
        # elsewhere in the batch must not turn an opposing pair into an
        # accidental reweight-to-default.
        cancelled = 0
        if ins_u.size and del_u.size:
            span = np.int64(max(int(ins_v.max(initial=0)), int(del_v.max(initial=0))) + 1)
            ins_keys = ins_u * span + ins_v
            del_keys = del_u * span + del_v
            cancels = np.isin(ins_keys, del_keys, assume_unique=True) & ~explicit
            cancelled = int(np.count_nonzero(cancels))
            if cancelled:
                keep_del = ~np.isin(del_keys, ins_keys[cancels], assume_unique=True)
                ins_u, ins_v = ins_u[~cancels], ins_v[~cancels]
                if ins_w is not None:
                    ins_w = ins_w[~cancels]
                del_u, del_v = del_u[keep_del], del_v[keep_del]
        return cls(
            insert_u=ins_u,
            insert_v=ins_v,
            insert_weights=ins_w,
            delete_u=del_u,
            delete_v=del_v,
            num_cancelled=cancelled,
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def num_insertions(self) -> int:
        """Number of (surviving) edge insertions in the batch."""
        return int(self.insert_u.shape[0])

    @property
    def num_deletions(self) -> int:
        """Number of (surviving) edge deletions in the batch."""
        return int(self.delete_u.shape[0])

    @property
    def is_empty(self) -> bool:
        """True when the batch performs no mutation at all."""
        return self.num_insertions == 0 and self.num_deletions == 0

    def touched_vertices(self) -> np.ndarray:
        """Sorted distinct endpoints of every op in the batch.

        These are the vertices whose closed neighborhood the batch changes;
        an edge's similarity can change only if one of its endpoints is in
        this set (the affected-set contract of the dynamic subsystem).
        """
        if self.is_empty:
            return _EMPTY_IDS.copy()
        return sorted_unique(
            np.concatenate([self.insert_u, self.insert_v, self.delete_u, self.delete_v])
        )

    def affected_edges(self, graph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``graph``'s edges incident to a touched endpoint: ``(ids, u, v)``.

        Each edge is listed once, with its endpoints ``u < v``.  Works
        against either the pre- or post-update graph; the patcher evaluates
        it on the *patched* graph, where it lists exactly the edges whose
        similarity must be recomputed (every other edge keeps its stored
        score bit for bit).
        """
        touched = self.touched_vertices()
        if touched.size == 0 or graph.num_edges == 0:
            return _EMPTY_IDS.copy(), _EMPTY_IDS.copy(), _EMPTY_IDS.copy()
        # Read off the touched rows: O(Σ deg) work, no pass over every edge.
        # An edge appears once per touched endpoint; keep its forward arc,
        # or its backward arc when the smaller endpoint is untouched.
        counts = graph.degrees[touched]
        rows = segmented_ranges(graph.indptr[touched], counts)
        sources = np.repeat(touched, counts)
        targets = graph.indices[rows].astype(np.int64)
        slots = np.minimum(np.searchsorted(touched, targets), touched.size - 1)
        keep = (sources < targets) | (touched[slots] != targets)
        sources, targets = sources[keep], targets[keep]
        return (
            graph.arc_edge_ids[rows[keep]].astype(np.int64),
            np.minimum(sources, targets),
            np.maximum(sources, targets),
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"UpdateBatch(+{self.num_insertions}, -{self.num_deletions}, "
            f"cancelled={self.num_cancelled})"
        )


@dataclass(frozen=True)
class UpdateReport:
    """What one :func:`repro.dynamic.patch.apply_updates` call did.

    Attributes
    ----------
    insertions, deletions:
        Ops actually applied (after batch canonicalization).
    cancelled:
        Opposing ops that cancelled inside the batch.
    affected_edges:
        Edges of the patched graph whose similarity was recomputed.
    affected_vertices:
        Vertices whose neighbor-order segment (and core-order entries)
        were respliced -- the touched endpoints plus their new neighbors.
    wall_seconds:
        Wall-clock time of the whole patch.
    order_strategy:
        How the sorted orders were repaired: ``"merge"`` (sorted-run
        merges, the low-churn default) or ``"resort"`` (construction-path
        segmented sorts, chosen past the measured churn crossover); the
        empty string for a no-op batch.  Output is bit-identical either
        way.
    """

    insertions: int
    deletions: int
    cancelled: int
    affected_edges: int
    affected_vertices: int
    wall_seconds: float
    order_strategy: str = ""


def _canonical_insertions(insertions):
    """Normalise insertions into ``(u, v, weights-or-None, explicit)`` arrays.

    ``explicit`` flags, per surviving insertion, whether the item itself
    carried a weight (a reweight request) as opposed to inheriting the 1.0
    default because some *other* item in the batch was weighted.
    """
    items = list(insertions)
    if not items:
        return _EMPTY_IDS.copy(), _EMPTY_IDS.copy(), None, np.zeros(0, dtype=bool)
    us = np.array([int(item[0]) for item in items], dtype=np.int64)
    vs = np.array([int(item[1]) for item in items], dtype=np.int64)
    explicit = np.array([len(item) > 2 for item in items], dtype=bool)
    weights = (
        np.array(
            [float(item[2]) if len(item) > 2 else 1.0 for item in items],
            dtype=np.float64,
        )
        if explicit.any()
        else None
    )
    if weights is not None and not np.isfinite(weights).all():
        bad = items[int(np.flatnonzero(~np.isfinite(weights))[0])]
        raise ValueError(f"insertion {tuple(bad)!r} has a non-finite weight")
    us, vs = _canonicalize_endpoints(us, vs, kind="insertion")
    # Dedupe keeping the last occurrence (the builders' last-weight-wins
    # convention); its weight and explicitness travel together.
    span = np.int64(int(vs.max()) + 1)
    keys = us * span + vs
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    us, vs, explicit = us[order], vs[order], explicit[order]
    if weights is not None:
        weights = weights[order]
    is_last = np.ones(keys.shape[0], dtype=bool)
    is_last[:-1] = keys[1:] != keys[:-1]
    us, vs, explicit = us[is_last], vs[is_last], explicit[is_last]
    if weights is not None:
        weights = weights[is_last]
    return us, vs, weights, explicit


def _canonical_deletions(deletions):
    """Normalise deletion pairs into unique, lex-sorted (u, v) arrays."""
    items = list(deletions)
    if not items:
        return _EMPTY_IDS.copy(), _EMPTY_IDS.copy()
    us = np.array([int(u) for u, _ in items], dtype=np.int64)
    vs = np.array([int(v) for _, v in items], dtype=np.int64)
    us, vs = _canonicalize_endpoints(us, vs, kind="deletion")
    span = np.int64(int(vs.max()) + 1)
    keys = sorted_unique(us * span + vs)
    return keys // span, keys % span


def _canonicalize_endpoints(us, vs, *, kind):
    """Swap to ``u < v``; reject self-loops and negative ids."""
    if us.size and int(min(us.min(), vs.min())) < 0:
        raise ValueError(f"{kind} endpoints must be non-negative vertex ids")
    loops = us == vs
    if loops.any():
        offender = int(us[loops][0])
        raise ValueError(
            f"{kind} ({offender}, {offender}) is a self-loop; "
            "the index covers simple graphs only"
        )
    return np.minimum(us, vs), np.maximum(us, vs)


def load_delta_file(path: str | Path) -> UpdateBatch:
    """Read an edge-delta text file into an :class:`UpdateBatch`.

    One op per line: ``+ u v`` or ``+ u v weight`` inserts, ``- u v``
    deletes; blank lines and lines starting with ``#`` or ``%`` are
    ignored.  This is the format ``repro update`` consumes.  A malformed
    line or a NaN or infinite weight raises ``ValueError`` naming the file
    and line.
    """
    path = Path(path)
    insertions: list[tuple] = []
    deletions: list[tuple[int, int]] = []
    with path.open() as handle:
        for line_number, raw_line in enumerate(handle, start=1):
            line = raw_line.strip()
            if not line or line.startswith(("#", "%")):
                continue
            parts = line.split()
            op = parts[0]
            try:
                if op == "+" and len(parts) in (3, 4):
                    if len(parts) == 4:
                        weight = float(parts[3])
                        if not math.isfinite(weight):
                            raise ValueError("non-finite weight")
                        insertions.append((int(parts[1]), int(parts[2]), weight))
                    else:
                        insertions.append((int(parts[1]), int(parts[2])))
                elif op == "-" and len(parts) == 3:
                    deletions.append((int(parts[1]), int(parts[2])))
                else:
                    raise ValueError("unrecognised op")
            except ValueError:
                # One message for malformed ops, unparsable numbers and
                # non-finite weights alike, located -- a typo in a
                # thousand-line delta must be findable.
                raise ValueError(
                    f"{path}:{line_number}: expected '+ u v [weight]' or '- u v' "
                    f"with a finite weight, got {line!r}"
                ) from None
    return UpdateBatch.from_edges(insertions, deletions)
