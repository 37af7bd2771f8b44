"""Generic k-way set-associative cache with per-set LRU replacement.

The prototype stores location hints "in a simple array managed as a k-way
associative cache" indexed by the URL hash (paper section 3.2.1): fixed
record count, fixed record size, one "disk access" per lookup when cold.
This module provides the associative structure over arbitrary Python
values, with true per-set LRU.  The prototype's own hint cache,
:mod:`repro.hints.hintcache`, does not build on it: it lays the same
geometry out as a packed array of 16-byte records (rotating a set's
slots to order them), which :mod:`repro.hints.storage` maps onto an mmap.

A cache with ``n_sets`` sets and associativity ``k`` holds at most
``n_sets * k`` entries.  Keys hash to a set by ``key % n_sets``; within a
set, the least recently used entry is displaced on conflict.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Generic, Iterator, TypeVar

V = TypeVar("V")


class SetAssociativeCache(Generic[V]):
    """Fixed-capacity k-way set-associative map from int keys to values.

    Args:
        n_sets: Number of sets (rows); must be positive.
        associativity: Entries per set (the paper's prototype uses 4).
    """

    def __init__(self, n_sets: int, associativity: int = 4) -> None:
        if n_sets <= 0:
            raise ValueError(f"n_sets must be positive, got {n_sets}")
        if associativity <= 0:
            raise ValueError(f"associativity must be positive, got {associativity}")
        self.n_sets = n_sets
        self.associativity = associativity
        self._sets: list[OrderedDict[int, V]] = [OrderedDict() for _ in range(n_sets)]
        self._size = 0
        #: Entries displaced by set conflicts since construction.
        self.conflict_evictions = 0
        #: New keys stored since construction (in-place updates excluded).
        self.insertions = 0
        #: Optional :class:`repro.audit.hooks.AuditHooks`; one pointer
        #: check per insertion when detached (the default).
        self.audit = None

    @property
    def capacity(self) -> int:
        """Maximum number of entries the cache can hold."""
        return self.n_sets * self.associativity

    def __len__(self) -> int:
        return self._size

    def __contains__(self, key: int) -> bool:
        return key in self._sets[key % self.n_sets]

    def _set_for(self, key: int) -> OrderedDict[int, V]:
        return self._sets[key % self.n_sets]

    def get(self, key: int) -> V | None:
        """Return the value for ``key`` (refreshing its LRU position)."""
        bucket = self._set_for(key)
        value = bucket.get(key)
        if value is not None or key in bucket:
            bucket.move_to_end(key)
        return value

    def peek(self, key: int) -> V | None:
        """Return the value for ``key`` without touching LRU order."""
        return self._set_for(key).get(key)

    def put(self, key: int, value: V) -> tuple[int, V] | None:
        """Insert or update ``key``; returns the displaced ``(key, value)``.

        Returns ``None`` when nothing was displaced.  Displacement only
        happens on set conflicts -- the structural cost of the fixed-layout
        array that Figure 5's small hint caches pay.
        """
        bucket = self._set_for(key)
        if key in bucket:
            bucket[key] = value
            bucket.move_to_end(key)
            return None
        displaced: tuple[int, V] | None = None
        if len(bucket) >= self.associativity:
            displaced = bucket.popitem(last=False)
            self._size -= 1
            self.conflict_evictions += 1
        bucket[key] = value
        self._size += 1
        self.insertions += 1
        if self.audit is not None:
            self.audit.check_setassoc_bounds(self)
        return displaced

    def remove(self, key: int) -> bool:
        """Remove ``key`` if present; True when something was removed."""
        bucket = self._set_for(key)
        if key not in bucket:
            return False
        del bucket[key]
        self._size -= 1
        return True

    def items(self) -> Iterator[tuple[int, V]]:
        """Iterate over all ``(key, value)`` pairs (set by set)."""
        for bucket in self._sets:
            yield from bucket.items()

    def clear(self) -> None:
        """Drop every entry (conflict counter is preserved)."""
        for bucket in self._sets:
            bucket.clear()
        self._size = 0

    def load_factor(self) -> float:
        """Fraction of capacity currently occupied."""
        return self._size / self.capacity
