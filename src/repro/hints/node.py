"""One proxy's hint module (the prototype's Squid interface, section 3.2).

A :class:`HintNode` owns a packed-array hint cache and answers the three
prototype commands -- *inform*, *invalidate*, *find nearest* -- plus
batch application for updates received from neighbors.  It knows nothing
about the metadata topology; :mod:`repro.hints.cluster` wires nodes
together and moves the batches.

Updates stay in the 20-byte wire layout (:mod:`repro.hints.wire`) from
end to end: a node packs each update it originates once, validating its
URL hash there, and applies a received batch record by record as plain
integers, queueing the batch itself for onward forwarding.
"""

from __future__ import annotations

from repro.hints.hintcache import HintCache
from repro.hints.records import MachineId, check_url_hash
from repro.hints.wire import (
    UPDATE_RECORD_BYTES,
    HintAction,
    HintUpdate,
    iter_updates,
    pack_update,
)

_INFORM = int(HintAction.INFORM)
_INVALIDATE = int(HintAction.INVALIDATE)


class HintNode:
    """A proxy's hint state: local cache + outbound update queue.

    Args:
        index: This node's index in the cluster.
        hint_capacity_bytes: Size of the local hint cache.
        associativity: Hint-cache associativity (4 in the prototype).

    The outbox holds ``(records, exclude_neighbor)`` tuples: packed
    20-byte records, and the tree neighbor they arrived from (``None`` for
    an update this node originated).  Forwarding skips that edge, which on
    a tree guarantees exactly-once delivery everywhere.  A received batch
    is queued whole, so one entry may hold several records.
    """

    def __init__(
        self, index: int, hint_capacity_bytes: int, associativity: int = 4
    ) -> None:
        self.index = index
        self.machine = MachineId.for_node(index)
        self.cache = HintCache(hint_capacity_bytes, associativity=associativity)
        self.outbox: list[tuple[bytes, int | None]] = []
        #: url_hash -> simulation time this node first learned a location.
        self.first_learned: dict[int, float] = {}
        self.updates_applied = 0
        self.updates_originated = 0

    # ------------------------------------------------------------------
    # the prototype's three commands
    # ------------------------------------------------------------------
    def inform(self, url_hash: int, now: float) -> None:
        """A copy of the object is now stored locally; advertise it."""
        self._originate(_INFORM, url_hash)
        self.cache.inform_raw(url_hash, self.machine.address, self.machine.port)
        self.first_learned.setdefault(url_hash, now)

    def invalidate(self, url_hash: int, now: float) -> None:
        """The local copy is gone; advertise the non-presence."""
        self._originate(_INVALIDATE, url_hash)
        self.cache.invalidate(url_hash)

    def find_nearest(self, url_hash: int) -> MachineId | None:
        """Report the nearest known copy, purely from local state."""
        return self.cache.find_nearest(url_hash)

    def readvertise(self, now: float) -> None:
        """Re-queue an inform for every hint that names this node.

        Walks :attr:`first_learned` in insertion order; each check is a
        counted, promoting find, as a *find nearest* would be.
        """
        holder = (self.machine.address, self.machine.port)
        find = self.cache.find_nearest_raw
        for url_hash in list(self.first_learned):
            if find(url_hash) == holder:
                self.inform(url_hash, now)

    def _originate(self, action: int, url_hash: int) -> None:
        check_url_hash(url_hash)
        self.updates_originated += 1
        record = pack_update(action, url_hash, self.machine.address, self.machine.port)
        self.outbox.append((record, None))

    # ------------------------------------------------------------------
    # neighbor traffic
    # ------------------------------------------------------------------
    def apply_batch(self, blob: bytes, from_neighbor: int, now: float) -> None:
        """Apply a received batch of packed records; queue it onward.

        An inform stores the hint.  An invalidate runs a counted,
        promoting find and drops the hint only if it names the machine
        that lost its copy: a hint naming a different holder is still
        valid.
        """
        cache = self.cache
        first_learned = self.first_learned
        for action, object_id, address, port in iter_updates(blob):
            if action == _INFORM:
                cache.inform_raw(object_id, address, port)
                first_learned.setdefault(object_id, now)
            elif cache.find_nearest_raw(object_id) == (address, port):
                cache.invalidate(object_id)
        self.updates_applied += len(blob) // UPDATE_RECORD_BYTES
        self.outbox.append((blob, from_neighbor))

    def apply_update(self, update: HintUpdate, from_neighbor: int, now: float) -> None:
        """Apply one received update and queue it for onward forwarding."""
        self.apply_batch(update.pack(), from_neighbor, now)

    def drain_outbox(self) -> list[tuple[bytes, int | None]]:
        """Take every queued update (the flush step)."""
        pending, self.outbox = self.outbox, []
        return pending
