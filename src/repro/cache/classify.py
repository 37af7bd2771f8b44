"""Miss taxonomy (the categories of the paper's Figure 2).

Every access resolves to an :class:`AccessOutcome`: a hit, or a miss
carrying a :class:`MissClass`:

* ``ERROR`` -- the origin reply is an error.
* ``UNCACHABLE`` -- the request must contact the server (CGI / non-GET /
  cache-control), regardless of cache contents.
* ``COMPULSORY`` -- first access to the object by this cache (cold miss).
* ``COMMUNICATION`` -- the object was cached but invalidated by an update
  (or the cached copy is older than the requested version).
* ``CAPACITY`` -- the object was cached at the current version but was
  evicted to make room for other data.

:class:`MissClassifier` wraps an :class:`~repro.cache.lru.LRUCache` and
applies the paper's precedence rules, accumulating both per-request and
per-byte counts (Figure 2 shows both).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum, auto

from repro.cache.lru import LookupResult, LRUCache
from repro.traces.records import Request


class MissClass(Enum):
    """Why a request missed (Figure 2 categories)."""

    ERROR = auto()
    UNCACHABLE = auto()
    COMPULSORY = auto()
    COMMUNICATION = auto()
    CAPACITY = auto()


@dataclass(frozen=True)
class AccessOutcome:
    """Result of classifying one access against one cache."""

    hit: bool
    miss_class: MissClass | None = None

    def __post_init__(self) -> None:
        if self.hit == (self.miss_class is not None):
            raise ValueError("exactly one of hit / miss_class must be set")


@dataclass
class MissCounts:
    """Request and byte counters per access outcome."""

    requests: dict[str, int] = field(
        default_factory=lambda: {c.name.lower(): 0 for c in MissClass} | {"hit": 0}
    )
    request_bytes: dict[str, int] = field(
        default_factory=lambda: {c.name.lower(): 0 for c in MissClass} | {"hit": 0}
    )

    def record(self, outcome: AccessOutcome, size: int) -> None:
        key = "hit" if outcome.hit else outcome.miss_class.name.lower()
        self.requests[key] += 1
        self.request_bytes[key] += size

    @property
    def total_requests(self) -> int:
        return sum(self.requests.values())

    @property
    def total_bytes(self) -> int:
        return sum(self.request_bytes.values())

    def miss_ratio(self, miss_class: MissClass | None = None) -> float:
        """Fraction of requests that missed (optionally: in one class)."""
        total = self.total_requests
        if total == 0:
            return 0.0
        if miss_class is None:
            return (total - self.requests["hit"]) / total
        return self.requests[miss_class.name.lower()] / total

    def byte_miss_ratio(self, miss_class: MissClass | None = None) -> float:
        """Fraction of bytes that missed (optionally: in one class)."""
        total = self.total_bytes
        if total == 0:
            return 0.0
        if miss_class is None:
            return (total - self.request_bytes["hit"]) / total
        return self.request_bytes[miss_class.name.lower()] / total


class MissClassifier:
    """Classify accesses against a single LRU cache (Figure 2 experiment).

    The classifier owns the cache: :meth:`access` performs the lookup,
    classifies the outcome, inserts the object on (cacheable, non-error)
    misses, and updates the counters.  Because it makes every insert, it
    also records the highest version it ever inserted per object --
    oversize inserts the cache refused included -- which tells a capacity
    miss (stored before at this version) from a compulsory one (never
    stored).
    """

    def __init__(self, cache: LRUCache) -> None:
        self.cache = cache
        self.counts = MissCounts()
        self._stored_version: dict[int, int] = {}

    def access(self, request: Request) -> AccessOutcome:
        """Process one trace record; returns its classified outcome."""
        # Fields from object_id on: (object_id, size, version, cacheable, error).
        return self.access_fields(*request[2:])

    def access_fields(
        self, object_id: int, size: int, version: int, cacheable: bool, error: bool
    ) -> AccessOutcome:
        """:meth:`access` on one record's fields, as a column reader has them."""
        outcome = self._classify(object_id, size, version, cacheable, error)
        self.counts.record(outcome, size)
        return outcome

    def _classify(
        self, object_id: int, size: int, version: int, cacheable: bool, error: bool
    ) -> AccessOutcome:
        if error:
            return AccessOutcome(hit=False, miss_class=MissClass.ERROR)
        if not cacheable:
            return AccessOutcome(hit=False, miss_class=MissClass.UNCACHABLE)

        result = self.cache.lookup(object_id, version)
        if result is LookupResult.HIT:
            return AccessOutcome(hit=True)

        last_version = self._stored_version.get(object_id)
        if result is LookupResult.STALE:
            miss_class = MissClass.COMMUNICATION
        elif last_version is None:
            miss_class = MissClass.COMPULSORY
        elif last_version < version:
            # The evicted copy would have been invalidated anyway.
            miss_class = MissClass.COMMUNICATION
        else:
            miss_class = MissClass.CAPACITY
        self.cache.insert(object_id, size, version)
        if last_version is None or last_version < version:
            self._stored_version[object_id] = version
        return AccessOutcome(hit=False, miss_class=miss_class)
