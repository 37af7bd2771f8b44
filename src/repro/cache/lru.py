"""Byte-capacity LRU object cache with version-aware lookups.

This is the data cache every proxy in the simulation runs.  Capacity is in
bytes (proxy disks in the paper are 5 GB); ``capacity=None`` models the
paper's "infinite cache" configurations.  Strong consistency is modelled by
object versions: a lookup that finds an entry with an older version counts
as a *stale hit*, the cached copy is invalidated, and the caller treats the
access as a communication miss.

Entries are stored as plain integers, never as one Python object per
entry: the recency-ordered map holds each key's stored version and a plain
dict holds its size.  Integers are not tracked by CPython's cyclic garbage
collector, so an unbounded cache that keeps every fetched object adds no
tracked object per insert, and a full collection does not walk its
contents.  :meth:`LRUCache.peek` and the ``on_evict`` callback still hand
out a :class:`CacheEntry`, built on demand.

Replacement policy is factored into four override points (``_touch``,
``_victim_key``, ``_note_add``/``_note_remove``/``_note_clear``) so
:mod:`repro.cache.policy` can derive LFU and Random variants without
duplicating the version/consistency/accounting machinery.  The base class
*is* the LRU policy; every hook default reproduces the original behaviour
exactly.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from enum import Enum, auto
from typing import Callable, Iterator


@dataclass(slots=True)
class CacheEntry:
    """One cached object: its size in bytes and the version stored.

    A snapshot handed out by :meth:`LRUCache.peek` and to ``on_evict``
    callbacks; the cache itself stores plain integers.
    """

    size: int
    version: int


class LookupResult(Enum):
    """Outcome of a version-aware cache lookup."""

    HIT = auto()
    MISS = auto()
    STALE = auto()  # present, but an older version: invalidated on lookup


class LRUCache:
    """LRU cache evicting by total byte size.

    Args:
        capacity_bytes: Maximum total size of cached objects; ``None`` means
            unbounded (the paper's infinite-cache configurations).
        on_evict: Optional callback ``(key, entry, reason)`` invoked whenever
            an object leaves the cache.  ``reason`` is ``"capacity"``,
            ``"invalidate"``, or ``"remove"``.  The hint system uses this to
            advertise non-presence (the prototype's *invalidate* command).

    Objects larger than the capacity are simply not cached (they would evict
    everything and immediately be evicted themselves).
    """

    #: Replacement-policy identifier (subclasses override).
    policy_name = "lru"

    def __init__(
        self,
        capacity_bytes: int | None = None,
        on_evict: Callable[[int, CacheEntry, str], None] | None = None,
    ) -> None:
        if capacity_bytes is not None and capacity_bytes < 0:
            raise ValueError(f"capacity must be non-negative, got {capacity_bytes}")
        self.capacity_bytes = capacity_bytes
        self._on_evict = on_evict
        # key -> stored version, in recency order (least recent first), and
        # key -> size in bytes.  Plain ints: no GC-tracked object per entry.
        # The fast engine's unbounded-L1 probe reads ``_entries`` directly.
        self._entries: OrderedDict[int, int] = OrderedDict()
        self._sizes: dict[int, int] = {}
        self._used_bytes = 0
        #: Lifetime churn counters (monotone; plain ints so the hot path
        #: pays one addition -- telemetry reads them via callbacks).
        self.insertions = 0
        self.evictions = 0  # capacity evictions only
        self.invalidations = 0  # consistency invalidations (incl. stale hits)
        #: Keys whose *latest* insert was refused for exceeding capacity.
        #: Holder bookkeeping outside the cache (hint informs) may still
        #: advertise these, so audits exempt them from presence checks.
        self.oversize_rejections: set[int] = set()
        #: Optional :class:`repro.audit.hooks.AuditHooks`; when attached,
        #: every mutation re-checks the byte-accounting bounds.  Costs one
        #: pointer check per mutation when ``None`` (the default).
        self.audit = None

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: int) -> bool:
        return key in self._entries

    def __iter__(self) -> Iterator[int]:
        return iter(self._entries)

    @property
    def used_bytes(self) -> int:
        """Current total size of cached objects."""
        return self._used_bytes

    @property
    def occupancy_bytes(self) -> int:
        """Protocol-named alias of :attr:`used_bytes`.

        Every cache-like structure (data caches, hint stores, negative
        caches) exposes ``occupancy_bytes``, so telemetry can bind any of
        them without per-class accessor fallbacks.
        """
        return self._used_bytes

    def peek(self, key: int) -> CacheEntry | None:
        """Snapshot of the entry for ``key`` without touching LRU order."""
        version = self._entries.get(key)
        if version is None:
            return None
        return CacheEntry(self._sizes[key], version)

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def lookup(self, key: int, version: int) -> LookupResult:
        """Version-aware lookup; promotes on hit, invalidates stale copies."""
        stored = self._entries.get(key)
        if stored is None:
            return LookupResult.MISS
        if stored < version:
            self._delete(key, "invalidate")
            return LookupResult.STALE
        self._touch(key)
        return LookupResult.HIT

    def insert(self, key: int, size: int, version: int) -> list[int]:
        """Insert or refresh an object; returns keys evicted to make room."""
        if size < 0:
            raise ValueError(f"object size must be non-negative, got {size}")
        if self.capacity_bytes is not None and size > self.capacity_bytes:
            # Uncacheably large for this cache.  A surviving *older* copy
            # under the same key is invalid now (strong consistency: the
            # object changed), so it must not keep serving hits --
            # invalidate it on the way out.
            stale = self._entries.get(key)
            if stale is not None and stale < version:
                self._delete(key, "invalidate")
            self.oversize_rejections.add(key)
            if self.audit is not None:
                self.audit.check_cache_bounds(self)
            return []
        existing = self._entries.pop(key, None)
        if existing is not None:
            self._used_bytes -= self._sizes[key]
        self._entries[key] = version
        self._sizes[key] = size
        self._used_bytes += size
        self.insertions += 1
        self._note_add(key, new=existing is None)
        self.oversize_rejections.discard(key)
        if self.capacity_bytes is not None and self._used_bytes > self.capacity_bytes:
            evicted = self._evict_to_fit(protect=key)
        else:
            evicted = []
        if self.audit is not None:
            self.audit.check_cache_bounds(self)
        return evicted

    def touch_lru_demote(self, key: int) -> None:
        """Age ``key`` by moving it to the eviction end of the LRU list.

        The update-push algorithm "ages" objects that keep changing without
        being read (paper section 4.1.2); this is that mechanism.
        """
        if key in self._entries:
            self._entries.move_to_end(key, last=False)

    def invalidate(self, key: int) -> bool:
        """Drop ``key`` due to a consistency invalidation; True if present."""
        if key not in self._entries:
            return False
        self._delete(key, "invalidate")
        return True

    def remove(self, key: int) -> bool:
        """Administratively drop ``key``; True if it was present."""
        if key not in self._entries:
            return False
        self._delete(key, "remove")
        return True

    def clear(self, *, notify: bool = False, reason: str = "remove") -> list[int]:
        """Drop every entry at once; returns the keys that were present.

        Models a node crash losing its volatile contents.  With
        ``notify=False`` (the default) the ``on_evict`` callback is *not*
        invoked -- a crashed node cannot announce what it lost, which is
        precisely how stale hints are born; the caller decides what, if
        anything, to tell the metadata layer.
        """
        keys = list(self._entries)
        if notify and self._on_evict is not None:
            for key in keys:
                self._delete(key, reason)
        else:
            self._entries.clear()
            self._sizes.clear()
            self._used_bytes = 0
            self._note_clear()
        return keys

    # ------------------------------------------------------------------
    # replacement-policy hooks (the base class IS the LRU policy; see
    # repro.cache.policy for the LFU and Random overrides)
    # ------------------------------------------------------------------
    def _touch(self, key: int) -> None:
        """Record a hit on ``key`` (LRU: promote to most-recently-used)."""
        self._entries.move_to_end(key)

    def _victim_key(self, protect: int) -> int:
        """Choose the next capacity victim; never ``protect``.

        ``protect`` is the key whose insert triggered the eviction -- an
        incoming object is never its own victim, so the holder metadata a
        caller publishes right after ``insert`` stays truthful.  For LRU
        the front of the ordered dict is the least-recently-used entry and
        the protected key sits at the back, so the skip never fires until
        the protected key is the sole survivor (at which point the byte
        budget is already met and :meth:`_evict_to_fit` has stopped).
        """
        for key in self._entries:
            if key != protect:
                return key
        raise RuntimeError("no evictable entry")  # pragma: no cover

    def _note_add(self, key: int, *, new: bool) -> None:
        """Bookkeeping hook: ``key`` was stored (``new``=False on refresh)."""

    def _note_remove(self, key: int) -> None:
        """Bookkeeping hook: ``key`` left the cache via :meth:`_delete`."""

    def _note_clear(self) -> None:
        """Bookkeeping hook: every entry was dropped without callbacks."""

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _evict_to_fit(self, protect: int) -> list[int]:
        evicted: list[int] = []
        if self.capacity_bytes is None:
            return evicted
        while self._used_bytes > self.capacity_bytes and len(self._entries) > 1:
            key = self._victim_key(protect)
            self._delete(key, "capacity")
            evicted.append(key)
        return evicted

    def _delete(self, key: int, reason: str) -> None:
        version = self._entries.pop(key)
        size = self._sizes.pop(key)
        self._used_bytes -= size
        self._note_remove(key)
        if reason == "capacity":
            self.evictions += 1
        elif reason == "invalidate":
            self.invalidations += 1
        if self._on_evict is not None:
            self._on_evict(key, CacheEntry(size, version), reason)
