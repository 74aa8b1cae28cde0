"""Open-addressing hash table in the style of the GBBS phase-concurrent table.

The paper's implementation relies on the phase-concurrent hash table of Shun
and Blelloch for neighborhood lookups (Algorithm 1) and for the hash maps used
by query post-processing (Algorithm 4).  This module provides a from-scratch
linear-probing table over 64-bit integer keys with the same *phase* discipline:
a batch of inserts, then a batch of lookups, never interleaved.  Batch
operations charge the bounds quoted in Section 2.3.2 (``O(k)`` work and
``O(log* k)`` span for ``k`` inserts, ``O(1)`` work per lookup).

No algorithm in this package calls it: the ``hash`` similarity backend uses
Python dicts, and the query uses dense arrays indexed by vertex (the
optimisations of Section 6.2).  It stays as a reference primitive with the
paper's cost charges.
"""

from __future__ import annotations

import numpy as np

from .metrics import ceil_log2
from .primitives import LOG_STAR_SPAN
from .scheduler import Scheduler

_EMPTY = np.int64(-1)
#: Multiplicative constant of the Fibonacci / multiply-shift hash.
_HASH_MULTIPLIER = 0x9E3779B97F4A7C15
_WORD_MASK = (1 << 64) - 1


def _hash_key(key: int) -> int:
    """64-bit multiply-shift hash of a non-negative integer key."""
    return ((int(key) * _HASH_MULTIPLIER) & _WORD_MASK) >> 40


def _next_power_of_two(n: int) -> int:
    """Smallest power of two that is at least ``n`` (and at least 8)."""
    size = 8
    while size < n:
        size <<= 1
    return size


class ParallelHashSet:
    """Linear-probing hash set of non-negative 64-bit integer keys."""

    def __init__(self, expected_size: int = 8, *, load_factor: float = 0.5) -> None:
        if not 0.0 < load_factor < 1.0:
            raise ValueError(f"load_factor must be in (0, 1), got {load_factor}")
        self._load_factor = load_factor
        capacity = _next_power_of_two(max(8, int(expected_size / load_factor) + 1))
        self._slots = np.full(capacity, _EMPTY, dtype=np.int64)
        self._size = 0

    def __len__(self) -> int:
        return self._size

    @property
    def capacity(self) -> int:
        """Number of slots currently allocated."""
        return int(self._slots.shape[0])

    def _probe(self, key: int) -> int:
        """Return the slot index holding ``key``, or the first empty slot."""
        mask = self.capacity - 1
        index = _hash_key(key) & mask
        slots = self._slots
        while slots[index] != _EMPTY and slots[index] != key:
            index = (index + 1) & mask
        return index

    def _maybe_grow(self, incoming: int) -> None:
        if (self._size + incoming) / self.capacity <= self._load_factor:
            return
        old_keys = self._slots[self._slots != _EMPTY]
        capacity = _next_power_of_two(
            max(8, int((self._size + incoming) / self._load_factor) + 1)
        )
        self._slots = np.full(capacity, _EMPTY, dtype=np.int64)
        self._size = 0
        for key in old_keys:
            self._insert_one(int(key))

    def _insert_one(self, key: int) -> None:
        slot = self._probe(key)
        if self._slots[slot] == _EMPTY:
            self._slots[slot] = key
            self._size += 1

    def add(self, key: int) -> None:
        """Insert a single key (idempotent)."""
        if key < 0:
            raise ValueError(f"keys must be non-negative, got {key}")
        self._maybe_grow(1)
        self._insert_one(int(key))

    def add_batch(self, scheduler: Scheduler, keys: np.ndarray) -> None:
        """Insert a batch of keys.  Work O(k), span O(log* k)."""
        keys = np.asarray(keys, dtype=np.int64)
        if keys.size and int(keys.min()) < 0:
            raise ValueError("keys must be non-negative")
        scheduler.charge(int(keys.size), LOG_STAR_SPAN)
        self._maybe_grow(int(keys.size))
        for key in keys:
            self._insert_one(int(key))

    def __contains__(self, key: int) -> bool:
        if key < 0:
            return False
        return self._slots[self._probe(int(key))] == key

    def contains_batch(self, scheduler: Scheduler, keys: np.ndarray) -> np.ndarray:
        """Membership test for a batch of keys.  Work O(k), span O(log k)."""
        keys = np.asarray(keys, dtype=np.int64)
        scheduler.charge(int(keys.size), ceil_log2(int(keys.size)) + 1.0)
        return np.fromiter((int(k) in self for k in keys), dtype=bool, count=keys.size)

    def to_array(self) -> np.ndarray:
        """All stored keys, in unspecified order."""
        return np.sort(self._slots[self._slots != _EMPTY])


class ParallelHashMap:
    """Linear-probing hash map from non-negative int64 keys to int64 values."""

    def __init__(self, expected_size: int = 8, *, load_factor: float = 0.5) -> None:
        if not 0.0 < load_factor < 1.0:
            raise ValueError(f"load_factor must be in (0, 1), got {load_factor}")
        self._load_factor = load_factor
        capacity = _next_power_of_two(max(8, int(expected_size / load_factor) + 1))
        self._keys = np.full(capacity, _EMPTY, dtype=np.int64)
        self._values = np.zeros(capacity, dtype=np.int64)
        self._size = 0

    def __len__(self) -> int:
        return self._size

    @property
    def capacity(self) -> int:
        """Number of slots currently allocated."""
        return int(self._keys.shape[0])

    def _probe(self, key: int) -> int:
        mask = self.capacity - 1
        index = _hash_key(key) & mask
        keys = self._keys
        while keys[index] != _EMPTY and keys[index] != key:
            index = (index + 1) & mask
        return index

    def _maybe_grow(self, incoming: int) -> None:
        if (self._size + incoming) / self.capacity <= self._load_factor:
            return
        occupied = self._keys != _EMPTY
        old_keys = self._keys[occupied]
        old_values = self._values[occupied]
        capacity = _next_power_of_two(
            max(8, int((self._size + incoming) / self._load_factor) + 1)
        )
        self._keys = np.full(capacity, _EMPTY, dtype=np.int64)
        self._values = np.zeros(capacity, dtype=np.int64)
        self._size = 0
        for key, value in zip(old_keys, old_values):
            self._set_one(int(key), int(value))

    def _set_one(self, key: int, value: int) -> None:
        slot = self._probe(key)
        if self._keys[slot] == _EMPTY:
            self._keys[slot] = key
            self._size += 1
        self._values[slot] = value

    def __setitem__(self, key: int, value: int) -> None:
        if key < 0:
            raise ValueError(f"keys must be non-negative, got {key}")
        self._maybe_grow(1)
        self._set_one(int(key), int(value))

    def __getitem__(self, key: int) -> int:
        slot = self._probe(int(key))
        if self._keys[slot] == _EMPTY:
            raise KeyError(key)
        return int(self._values[slot])

    def get(self, key: int, default: int | None = None) -> int | None:
        """Value stored for ``key``, or ``default`` when absent."""
        slot = self._probe(int(key))
        if self._keys[slot] == _EMPTY:
            return default
        return int(self._values[slot])

    def __contains__(self, key: int) -> bool:
        if key < 0:
            return False
        return self._keys[self._probe(int(key))] != _EMPTY

    def set_batch(self, scheduler: Scheduler, keys: np.ndarray, values: np.ndarray) -> None:
        """Insert key/value pairs.  Work O(k), span O(log* k)."""
        keys = np.asarray(keys, dtype=np.int64)
        values = np.asarray(values, dtype=np.int64)
        if keys.shape != values.shape:
            raise ValueError("keys and values must have equal length")
        scheduler.charge(int(keys.size), LOG_STAR_SPAN)
        self._maybe_grow(int(keys.size))
        for key, value in zip(keys, values):
            self._set_one(int(key), int(value))

    def items(self) -> list[tuple[int, int]]:
        """All stored pairs, sorted by key (for deterministic iteration)."""
        occupied = self._keys != _EMPTY
        pairs = sorted(zip(self._keys[occupied].tolist(), self._values[occupied].tolist()))
        return [(int(k), int(v)) for k, v in pairs]
