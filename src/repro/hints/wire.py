"""Hint-update wire format and batching (paper section 3.2).

"Periodically, each cache POSTs to its neighbor a message containing ...
the batch of all updates that the cache has seen in the most recent period;
each update consumes 20 bytes: a 4-byte action, an 8-byte object identifier
(part of the MD5 signature of the object's URL), and an 8-byte machine
identifier (an IP address and port number). Nodes randomly choose the
period between updates using a uniform distribution between 0 and 60
seconds to avoid the routing protocol capture effects observed by Floyd
and Jacobson."

This module implements exactly that: a 20-byte record, batch
encode/decode, and an :class:`UpdateBatcher` with the randomized period.
The bandwidth arithmetic the paper does (1.9 updates/s x 20 B = 38 B/s at
the busiest hint cache) is reproduced by ``benchmarks/test_bench_table5``.

It owns the record layout.  :func:`pack_update` and :func:`iter_updates`
speak it in plain integers -- ``(action, object_id, address, port)`` --
for the live cluster, whose records stay packed from the node that
originates them to every node that applies them;
:class:`HintUpdate` and :func:`decode_updates` are the validated object
form for input from outside (a POST body).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from enum import IntEnum

import numpy as np

from repro.hints.records import MachineId

_UPDATE_STRUCT = struct.Struct("<lQLL")

#: Size of one packed update; pinned to the paper's 20 bytes by tests.
UPDATE_RECORD_BYTES = _UPDATE_STRUCT.size

#: Maximum randomized batching period, seconds.
MAX_UPDATE_PERIOD_S = 60.0


class HintAction(IntEnum):
    """The 4-byte action field of an update."""

    INFORM = 1  # a copy of the object is now stored at `machine`
    INVALIDATE = 2  # the copy at `machine` is no longer present


@dataclass(frozen=True)
class HintUpdate:
    """One 20-byte hint update."""

    action: HintAction
    object_id: int  # 64-bit URL hash
    machine: MachineId

    def pack(self) -> bytes:
        """Serialize to the 20-byte wire layout."""
        return _UPDATE_STRUCT.pack(
            int(self.action), self.object_id, self.machine.address, self.machine.port
        )

    @classmethod
    def unpack(cls, blob: bytes) -> "HintUpdate":
        """Deserialize one 20-byte update."""
        if len(blob) != UPDATE_RECORD_BYTES:
            raise ValueError(f"update must be {UPDATE_RECORD_BYTES} bytes, got {len(blob)}")
        action, object_id, address, port = _UPDATE_STRUCT.unpack(blob)
        return cls(
            action=HintAction(action),
            object_id=object_id,
            machine=MachineId(address=address, port=port),
        )


#: ``pack_update(action, object_id, address, port)``: one 20-byte record
#: from plain integers, unvalidated.
pack_update = _UPDATE_STRUCT.pack

#: ``iter_updates(blob)``: the ``(action, object_id, address, port)`` of
#: each record in a batch, as plain integers.  Checks only that the batch
#: is whole records; the fields are whatever was packed.
iter_updates = _UPDATE_STRUCT.iter_unpack


def encode_updates(updates: list[HintUpdate]) -> bytes:
    """Pack a batch of updates into one POST body."""
    return b"".join(u.pack() for u in updates)


def decode_updates(blob: bytes) -> list[HintUpdate]:
    """Unpack a POST body into its updates.

    Raises ``ValueError`` for a ragged body, an unknown action or a port
    that does not fit in 16 bits.
    """
    if len(blob) % UPDATE_RECORD_BYTES != 0:
        raise ValueError(
            f"batch length {len(blob)} is not a multiple of {UPDATE_RECORD_BYTES}"
        )
    return [
        HintUpdate(HintAction(action), object_id, MachineId(address, port))
        for action, object_id, address, port in iter_updates(blob)
    ]


@dataclass
class UpdateBatcher:
    """Accumulates updates and flushes them on a randomized period.

    Each flush schedules the next one at ``now + U(0, 60s)`` -- the paper's
    anti-synchronization jitter.  The batcher also keeps the bandwidth
    counters the paper reports (updates/s, bytes/s).

    Args:
        rng: Randomness for the flush period.
        max_period_s: Upper bound of the uniform period (60 s in the paper).
    """

    rng: np.random.Generator
    max_period_s: float = MAX_UPDATE_PERIOD_S
    _pending: list[HintUpdate] = field(default_factory=list)
    _next_flush: float | None = None
    total_updates: int = 0
    total_bytes: int = 0
    total_flushes: int = 0

    def add(self, update: HintUpdate, now: float) -> None:
        """Queue one update at time ``now``."""
        if self._next_flush is None:
            self._next_flush = now + self.rng.uniform(0.0, self.max_period_s)
        self._pending.append(update)

    def pending_count(self) -> int:
        """Number of queued, unflushed updates."""
        return len(self._pending)

    def poll(self, now: float) -> bytes | None:
        """Flush if the period has elapsed; returns the encoded batch.

        Returns ``None`` when there is nothing to send yet.
        """
        if self._next_flush is None or now < self._next_flush or not self._pending:
            return None
        batch = encode_updates(self._pending)
        self.total_updates += len(self._pending)
        self.total_bytes += len(batch)
        self.total_flushes += 1
        self._pending.clear()
        self._next_flush = now + self.rng.uniform(0.0, self.max_period_s)
        return batch

    def bandwidth_bytes_per_s(self, elapsed_s: float) -> float:
        """Average update bandwidth over ``elapsed_s`` seconds."""
        if elapsed_s <= 0:
            raise ValueError("elapsed time must be positive")
        return self.total_bytes / elapsed_s
