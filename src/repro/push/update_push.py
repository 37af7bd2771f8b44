"""Update push (paper section 4.1.2).

"When an object is modified, a good list of candidates to reference the
new version of the object is the list of caches that previously cached the
old version."  So: when the system fetches an object because of a
communication miss, push the fresh copy to every cache still holding the
stale version.

Adaptivity knobs from the paper:

* an upper limit on update-push bandwidth -- pushes beyond the budget are
  discarded ("caches place an upper limit on the update-fetch bandwidth
  they will consume and discard update-fetch requests that exceed that
  rate");
* aging of repeatedly-updated-but-unread objects is implemented by the
  host architecture demoting pushed entries in LRU order (the policy's
  ``age_pushed_entries``; see :meth:`HintHierarchy._apply_pushes`, which
  also marks replicas as pending until first use).
"""

from __future__ import annotations

from repro.push.base import PushPolicy


class UpdatePush(PushPolicy):
    """Push freshly-updated objects to holders of the stale version.

    Args:
        max_bandwidth_bytes_per_s: Optional cap on average push bandwidth;
            ``None`` is unlimited.  The cap is enforced against the total
            bytes this policy has pushed since its first event, which is
            the long-run rate the paper's knob controls.
        age_pushed_entries: Demote pushed replicas in the target's LRU
            order so objects updated many times without being read age out
            (the paper's first adaptivity mechanism).  Off by default: the
            paper notes that "in resource-rich configurations, this aging
            will be slow", and our demotion is a full move to the eviction
            end -- the aggressive, resource-poor setting.
    """

    name = "update-push"

    def __init__(
        self,
        max_bandwidth_bytes_per_s: float | None = None,
        age_pushed_entries: bool = False,
    ) -> None:
        if max_bandwidth_bytes_per_s is not None and max_bandwidth_bytes_per_s <= 0:
            raise ValueError("bandwidth cap must be positive when given")
        self.max_bandwidth_bytes_per_s = max_bandwidth_bytes_per_s
        self.age_pushed_entries = age_pushed_entries
        self._bytes_pushed = 0
        self._first_event: float | None = None
        self.discarded_for_rate = 0

    def on_server_fetch(
        self,
        now: float,
        size: int,
        requester_l1: int,
        communication_miss: bool,
        stale_holders: dict[int, int],
    ) -> list[int]:
        if not communication_miss or not stale_holders:
            return []
        if self._first_event is None:
            self._first_event = now
        targets: list[int] = []
        for node in sorted(stale_holders):
            if node == requester_l1:
                continue
            if not self._within_budget(now, size):
                self.discarded_for_rate += 1
                continue
            targets.append(node)
            self._bytes_pushed += size
        return targets

    def _within_budget(self, now: float, size: int) -> bool:
        if self.max_bandwidth_bytes_per_s is None:
            return True
        start = self._first_event if self._first_event is not None else now
        elapsed = max(now - start, 1.0)
        return (self._bytes_pushed + size) / elapsed <= self.max_bandwidth_bytes_per_s
