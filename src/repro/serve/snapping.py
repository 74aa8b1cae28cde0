"""ε-snapping: canonicalizing query thresholds to stored similarity boundaries.

Every comparison a query makes against ε is of the form ``stored >= ε``,
where ``stored`` is either a neighbor-order similarity (the arc gather,
Algorithm 5 line 4) or a core-order threshold (the core prefix search,
Algorithm 3) -- and the core thresholds are themselves drawn from the
neighbor-order similarities (:func:`repro.core.core_order.build_core_order`
reads the threshold of ``v`` for μ off position μ-2 of ``NO[v]``).  The
stored values therefore form one finite set, and two thresholds ε ≤ ε' give
*every* comparison the same outcome -- hence bit-identical clusterings for
every μ -- exactly when no stored value lies in ``[ε, ε')``.

Those values are the edge similarities, and the index stores their sorted
distinct set as its ε boundary table
(:attr:`~repro.core.index.ScanIndex.epsilon_boundaries`, ranked once at
build).  :class:`EpsilonSnapper` wraps that table in O(1) -- nothing is
sorted when a session opens or an artifact reloads -- and maps any float ε
to the boundary of its equivalence interval:

* :meth:`EpsilonSnapper.rank` returns the number of distinct stored values
  strictly below ε -- the canonical integer key the serving cache uses, so
  distinct ε values with identical prefixes share one cache entry;
* :meth:`EpsilonSnapper.snap` returns the boundary value itself: the
  *smallest* stored similarity ≥ ε (ties snap **up**, i.e. ε snaps to the
  top of the half-open interval ``(prev, s]`` it lies in).  Querying with
  the snapped value in place of ε provably returns the same clustering,
  because ``stored >= ε`` and ``stored >= snap(ε)`` agree on every stored
  value.  When ε exceeds every stored value the query matches nothing and
  :meth:`snap` returns ``inf`` (all such ε share the one "empty" rank).
"""

from __future__ import annotations

import numpy as np

__all__ = ["EpsilonSnapper"]


class EpsilonSnapper:
    """Maps query thresholds to the similarity-rank boundary they resolve to.

    Parameters
    ----------
    boundaries:
        The sorted distinct stored similarity values -- an index's
        ``epsilon_boundaries``, which loads check strictly increasing and
        ``verify --deep`` proves complete.  Wrapped as a read-only view,
        not copied.
    """

    def __init__(self, boundaries: np.ndarray) -> None:
        self._boundaries = np.asarray(boundaries, dtype=np.float64).view()
        self._boundaries.setflags(write=False)

    @classmethod
    def from_index(cls, index) -> "EpsilonSnapper":
        """Wrap a :class:`~repro.core.index.ScanIndex`'s boundary table."""
        return cls(index.epsilon_boundaries)

    @property
    def num_boundaries(self) -> int:
        """Number of distinct stored similarity values."""
        return int(self._boundaries.shape[0])

    @property
    def boundaries(self) -> np.ndarray:
        """The sorted distinct stored similarity values (read-only view)."""
        return self._boundaries

    def rank(self, epsilon: float) -> int:
        """Number of distinct stored values strictly below ``epsilon``.

        This is the canonical cache key: ``rank(a) == rank(b)`` exactly when
        thresholds ``a`` and ``b`` select the same prefix of every sorted
        similarity run, i.e. produce bit-identical clusterings for every μ.
        """
        return int(np.searchsorted(self._boundaries, float(epsilon), side="left"))

    def snap(self, epsilon: float) -> float:
        """Smallest stored similarity ≥ ``epsilon`` (``inf`` when none exists).

        ``snap(ε)`` is the canonical representative of ε's equivalence
        interval; querying with it returns the same clustering as querying
        with ε itself.
        """
        return self.snap_at(self.rank(epsilon))

    def snap_at(self, rank: int) -> float:
        """The boundary value of a rank already computed with :meth:`rank`.

        Lets callers that hold the rank (the serving loop uses it as the
        cache key) avoid a second search over the boundary array.
        """
        if rank >= self._boundaries.shape[0]:
            return float("inf")
        return float(self._boundaries[rank])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"EpsilonSnapper({self.num_boundaries} boundaries)"
