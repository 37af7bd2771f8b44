"""Push-policy interface and accounting.

A policy inspects fetch events and returns the L1 proxies that should
receive an extra replica of the fetched object.  The host architecture
stores the fetched object (id, size and version) at each target,
charging disk space, and :class:`PushStats` tracks the two figures of
merit from the paper's Figure 11: *efficiency* (fraction of
pushed bytes later read before being evicted or invalidated) and
*bandwidth* (pushed bytes over time, compared against demand bytes).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field


class PushPolicy(abc.ABC):
    """Decides what to replicate on each fetch event.

    The default implementations push nothing, so concrete policies override
    only the events they care about.  Targets must leave out the requester
    and, on a remote fetch, the source: the host pushes to every target it
    is given.
    """

    #: Short name used in experiment reports (e.g. "push-1", "update-push").
    name: str = "abstract-push"

    #: The update-push adaptivity knob of section 4.1.2: "whenever a cache
    #: updates an object, the cache ages the object by moving it down the
    #: LRU list.  Thus, objects that are updated many times without being
    #: read will be evicted."  When set, the host demotes every replica
    #: this policy pushes to the eviction end of the target's LRU list.
    age_pushed_entries: bool = False

    def on_remote_fetch(
        self,
        now: float,
        size: int,
        requester_l1: int,
        source_l1: int,
        lca_level: int,
    ) -> list[int]:
        """Called after a cache-to-cache transfer; returns target L1 ids.

        ``size`` is the fetched object's size in bytes.  ``lca_level``
        is the metadata-hierarchy level of the least common ancestor of
        requester and source (2 = same L2 subtree, 3 = across L2
        subtrees).
        """
        return []

    def on_server_fetch(
        self,
        now: float,
        size: int,
        requester_l1: int,
        communication_miss: bool,
        stale_holders: dict[int, int],
    ) -> list[int]:
        """Called after an origin-server fetch; returns target L1 ids.

        ``stale_holders`` maps L1 nodes to the (older) version they hold;
        it is non-empty exactly when some cache still stores a stale copy.
        ``communication_miss`` is True when the fetch was triggered by an
        object update rather than a first reference.
        """
        return []


@dataclass
class PushStats:
    """Efficiency and bandwidth accounting for one simulation run."""

    pushed_count: int = 0
    pushed_bytes: int = 0
    used_count: int = 0
    used_bytes: int = 0
    wasted_count: int = 0  # pushed copies evicted/invalidated before use
    wasted_bytes: int = 0
    skipped_count: int = 0  # targets already holding this version or newer
    demand_bytes: int = 0  # bytes moved by ordinary demand fetches
    _first_event_s: float | None = field(default=None, repr=False)
    _last_event_s: float | None = field(default=None, repr=False)

    def note_time(self, now: float) -> None:
        """Track the span of activity for bandwidth computations."""
        if self._first_event_s is None:
            self._first_event_s = now
        self._last_event_s = now

    @property
    def efficiency(self) -> float:
        """Fraction of pushed bytes that were later accessed (Figure 11a)."""
        if self.pushed_bytes == 0:
            return 0.0
        return self.used_bytes / self.pushed_bytes

    @property
    def efficiency_by_count(self) -> float:
        """Fraction of pushed replicas that were later accessed."""
        if self.pushed_count == 0:
            return 0.0
        return self.used_count / self.pushed_count

    def push_bandwidth_bytes_per_s(self) -> float:
        """Average push bandwidth over the active span (Figure 11b)."""
        span = self._span()
        return self.pushed_bytes / span if span > 0 else 0.0

    def demand_bandwidth_bytes_per_s(self) -> float:
        """Average demand-fetch bandwidth over the active span."""
        span = self._span()
        return self.demand_bytes / span if span > 0 else 0.0

    def _span(self) -> float:
        if self._first_event_s is None or self._last_event_s is None:
            return 0.0
        return self._last_event_s - self._first_event_s
