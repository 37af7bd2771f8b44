"""The prototype's hint cache: a packed array managed 4-way set-associative.

Paper section 3.2.1: "our design stores a node's hint cache in a memory
mapped file consisting of an array of small, fixed-sized entries ... The
system currently stores hints in an array that it manages as a 4-way
associative cache indexed by the URL hash."  This module implements that
structure over an in-memory ``bytearray`` (the mmap'ed variant lives in
:mod:`repro.hints.storage`); lookups and inserts touch exactly one set of
four 16-byte slots, which is why the prototype could fault a missing hint
in with a single disk access.

Each operation reads its set with one ``struct`` unpack, finds the way by
comparing the set's hashes as integers, and writes the record -- rotated
to the front of the set -- with one pack.  The cluster calls the integer
entry points (:meth:`HintCache.find_nearest_raw`,
:meth:`HintCache.inform_raw`, :meth:`HintCache.invalidate`) with fields it
validated where the update originated; :meth:`HintCache.find_nearest` and
:meth:`HintCache.inform` are the validated, object-level commands.

The measured in-memory lookup time was 4.3 microseconds on a 1997 Ultra-2;
``benchmarks/test_bench_hint_lookup.py`` reproduces the measurement.
"""

from __future__ import annotations

import struct

from repro.hints.records import (
    INVALID_HASH,
    RECORD_BYTES,
    HintRecord,
    MachineId,
    check_url_hash,
)

#: Bytes per hint record (16, pinned by tests to the paper's figure).
HINT_RECORD_BYTES = RECORD_BYTES

_RECORD = struct.Struct("<QLL")
_EMPTY_RECORD = bytes(HINT_RECORD_BYTES)


class HintCache:
    """Fixed-size, k-way set-associative hint store over a packed buffer.

    Args:
        capacity_bytes: Total buffer size; the number of sets is
            ``capacity_bytes // (associativity * 16)``.
        associativity: Slots per set (the prototype uses 4).
        buffer: Optional pre-existing buffer (e.g. an ``mmap``); must be
            exactly ``capacity_bytes`` long and is used in place.

    LRU within a set is approximated the way fixed-layout caches do it: on
    insertion into a full set, the victim is the slot whose entry was least
    recently *installed or refreshed* (slot order is rotated on access so
    that recently used entries sit at lower slot indices).
    """

    def __init__(
        self,
        capacity_bytes: int,
        associativity: int = 4,
        buffer: bytearray | memoryview | None = None,
    ) -> None:
        if associativity <= 0:
            raise ValueError(f"associativity must be positive, got {associativity}")
        set_bytes = associativity * HINT_RECORD_BYTES
        n_sets = capacity_bytes // set_bytes
        if n_sets <= 0:
            raise ValueError(
                f"capacity {capacity_bytes} B holds no {associativity}-way sets"
            )
        self.associativity = associativity
        self.n_sets = n_sets
        self.capacity_bytes = n_sets * set_bytes
        if buffer is None:
            buffer = bytearray(self.capacity_bytes)
        if len(buffer) < self.capacity_bytes:
            raise ValueError(
                f"buffer of {len(buffer)} B too small for {self.capacity_bytes} B cache"
            )
        self._buf = memoryview(buffer)
        self._set = struct.Struct("<" + "QLL" * associativity)
        self._set_bytes = set_bytes
        self.lookups = 0
        self.insertions = 0
        self.conflict_evictions = 0
        #: Successful *invalidate* commands (staleness corrections).
        self.invalidations = 0

    # ------------------------------------------------------------------
    # geometry
    # ------------------------------------------------------------------
    @property
    def capacity_entries(self) -> int:
        """Maximum number of hints the cache can hold."""
        return self.n_sets * self.associativity

    # ------------------------------------------------------------------
    # operations
    # ------------------------------------------------------------------
    def find_nearest(self, url_hash: int) -> MachineId | None:
        """The prototype's *find nearest* command: look up one URL hash."""
        found = self.find_nearest_raw(url_hash)
        return None if found is None else MachineId(*found)

    def inform(self, url_hash: int, machine: MachineId) -> HintRecord | None:
        """The prototype's *inform* command: record a (new) nearest copy.

        Returns the hint displaced by a set conflict, if any -- displaced
        hints are exactly the "reach" loss that makes small hint caches in
        Figure 5 ineffective.
        """
        check_url_hash(url_hash)
        victim = self.inform_raw(url_hash, machine.address, machine.port)
        if victim is None:
            return None
        return HintRecord(victim[0], MachineId(victim[1], victim[2]))

    def find_nearest_raw(self, url_hash: int) -> tuple[int, int] | None:
        """*find nearest* as integers: the hint's ``(address, port)``.

        Counts a lookup; a hit rotates its slot to the front of the set.
        Hash 0 marks an empty slot and never matches.
        """
        self.lookups += 1
        start = url_hash % self.n_sets * self._set_bytes
        fields = self._set.unpack_from(self._buf, start)
        hashes = fields[::3]
        if url_hash == INVALID_HASH or url_hash not in hashes:
            return None
        at = 3 * hashes.index(url_hash)
        if at:
            self._set.pack_into(
                self._buf, start, *fields[at : at + 3], *fields[:at], *fields[at + 3 :]
            )
        return fields[at + 1 : at + 3]

    def inform_raw(
        self, url_hash: int, address: int, port: int
    ) -> tuple[int, int, int] | None:
        """*inform* as integers; the caller vouches for the fields.

        The record replaces the hash's own slot, else the first empty
        one, else the coldest (last) way -- returned as the displaced
        ``(url_hash, address, port)`` -- and moves to the front of the set.
        """
        self.insertions += 1
        start = url_hash % self.n_sets * self._set_bytes
        fields = self._set.unpack_from(self._buf, start)
        hashes = fields[::3]
        victim = None
        if url_hash in hashes:
            at = 3 * hashes.index(url_hash)
        elif INVALID_HASH in hashes:
            at = 3 * hashes.index(INVALID_HASH)
        else:
            at = 3 * (self.associativity - 1)
            victim = fields[at:]
            self.conflict_evictions += 1
        if at:
            self._set.pack_into(
                self._buf, start, url_hash, address, port, *fields[:at], *fields[at + 3 :]
            )
        else:  # already at the front: the rest of the set stays put
            _RECORD.pack_into(self._buf, start, url_hash, address, port)
        return victim

    def invalidate(self, url_hash: int) -> bool:
        """The prototype's *invalidate* command: drop the hint for a hash.

        Empties the slot in place (no promotion, no lookup counted); hash
        0 never matches.
        """
        start = url_hash % self.n_sets * self._set_bytes
        hashes = self._set.unpack_from(self._buf, start)[::3]
        if url_hash == INVALID_HASH or url_hash not in hashes:
            return False
        offset = start + hashes.index(url_hash) * HINT_RECORD_BYTES
        self._buf[offset : offset + HINT_RECORD_BYTES] = _EMPTY_RECORD
        self.invalidations += 1
        return True

    def __len__(self) -> int:
        return sum(
            url_hash != INVALID_HASH
            for (url_hash,) in struct.iter_unpack(
                "<Q8x", self._buf[: self.capacity_bytes]
            )
        )
