"""Tests for the packed-array set-associative hint cache."""

from __future__ import annotations

import struct
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hints.hintcache import HINT_RECORD_BYTES, HintCache
from repro.hints.records import INVALID_HASH, HintRecord, MachineId
from repro.hints.storage import MmapHintStore


def make_cache(entries=64, associativity=4):
    return HintCache(
        capacity_bytes=entries * HINT_RECORD_BYTES, associativity=associativity
    )


class TestGeometry:
    def test_capacity_entries(self):
        cache = make_cache(entries=64)
        assert cache.capacity_entries == 64
        assert cache.n_sets == 16

    def test_rounds_down_to_whole_sets(self):
        cache = HintCache(capacity_bytes=100, associativity=4)  # 1 set = 64 B
        assert cache.capacity_bytes == 64

    def test_rejects_too_small(self):
        with pytest.raises(ValueError):
            HintCache(capacity_bytes=10)

    def test_rejects_bad_associativity(self):
        with pytest.raises(ValueError):
            HintCache(capacity_bytes=1024, associativity=0)

    def test_rejects_short_buffer(self):
        with pytest.raises(ValueError, match="too small"):
            HintCache(capacity_bytes=1024, buffer=bytearray(10))


class TestOperations:
    def test_find_on_empty(self):
        assert make_cache().find_nearest(42) is None

    def test_inform_then_find(self):
        cache = make_cache()
        cache.inform(42, MachineId.for_node(7))
        found = cache.find_nearest(42)
        assert found is not None
        assert found.node == 7

    def test_inform_updates_existing(self):
        cache = make_cache()
        cache.inform(42, MachineId.for_node(1))
        cache.inform(42, MachineId.for_node(2))
        assert cache.find_nearest(42).node == 2
        assert len(cache) == 1

    def test_invalidate(self):
        cache = make_cache()
        cache.inform(42, MachineId.for_node(1))
        assert cache.invalidate(42)
        assert cache.find_nearest(42) is None
        assert not cache.invalidate(42)

    def test_len_counts_entries(self):
        cache = make_cache()
        for key in range(1, 11):
            cache.inform(key, MachineId.for_node(0))
        assert len(cache) == 10

    def test_stats_counters(self):
        cache = make_cache()
        cache.find_nearest(1)
        cache.inform(1, MachineId.for_node(0))
        assert cache.lookups == 1
        assert cache.insertions == 1


class TestConflicts:
    def test_set_conflict_displaces_cold_entry(self):
        # One set, 2 ways: three same-set keys must displace one.
        cache = HintCache(capacity_bytes=2 * HINT_RECORD_BYTES, associativity=2)
        assert cache.n_sets == 1
        cache.inform(1, MachineId.for_node(1))
        cache.inform(2, MachineId.for_node(2))
        cache.find_nearest(1)  # promote key 1
        displaced = cache.inform(3, MachineId.for_node(3))
        assert displaced is not None
        assert displaced.url_hash == 2
        assert cache.find_nearest(1) is not None
        assert cache.find_nearest(2) is None
        assert cache.conflict_evictions == 1

    def test_zero_hash_key_maps_to_a_set(self):
        # URL hash 0 is reserved, but a hash that's a multiple of n_sets
        # must still work (set index 0).
        cache = make_cache(entries=64)
        key = cache.n_sets * 3
        cache.inform(key, MachineId.for_node(9))
        assert cache.find_nearest(key).node == 9


class TestModelBased:
    @settings(deadline=None, max_examples=40)
    @given(
        st.lists(
            st.tuples(st.integers(1, 40), st.integers(0, 15)),
            min_size=1,
            max_size=60,
        )
    )
    def test_matches_dict_when_no_conflicts_possible(self, operations):
        """Capacity >= key range: the cache must behave like a dict."""
        cache = make_cache(entries=64, associativity=4)
        model: dict[int, int] = {}
        for key, node in operations:
            cache.inform(key, MachineId.for_node(node))
            model[key] = node
        assert cache.conflict_evictions == 0
        for key, node in model.items():
            assert cache.find_nearest(key).node == node


_SLOT = struct.Struct("<QLL")


class LoopHintCache:
    """The reference: every operation walks its set one 16-byte slot at a time."""

    def __init__(self, n_sets: int, associativity: int) -> None:
        self.n_sets, self.ways = n_sets, associativity
        self.buf = bytearray(n_sets * associativity * HINT_RECORD_BYTES)
        self.lookups = self.insertions = 0
        self.conflict_evictions = self.invalidations = 0

    def _slots(self, url_hash: int) -> list[int]:
        start = (url_hash % self.n_sets) * self.ways * HINT_RECORD_BYTES
        return [start + way * HINT_RECORD_BYTES for way in range(self.ways)]

    def _promote(self, slots: list[int], way: int) -> None:
        """Rotate slot ``way`` to the front of its set (MRU first)."""
        hot = self.buf[slots[way] : slots[way] + HINT_RECORD_BYTES]
        self.buf[slots[0] : slots[way] + HINT_RECORD_BYTES] = hot + self.buf[slots[0] : slots[way]]

    def find_nearest(self, url_hash: int) -> MachineId | None:
        self.lookups += 1
        slots = self._slots(url_hash)
        for way, offset in enumerate(slots):
            stored, address, port = _SLOT.unpack_from(self.buf, offset)
            if stored != INVALID_HASH and stored == url_hash:
                self._promote(slots, way)
                return MachineId(address, port)
        return None

    def inform(self, url_hash: int, machine: MachineId) -> HintRecord | None:
        self.insertions += 1
        record = HintRecord(url_hash, machine).pack()
        slots = self._slots(url_hash)
        empty = None
        for way, offset in enumerate(slots):
            stored = _SLOT.unpack_from(self.buf, offset)[0]
            if stored == INVALID_HASH:
                empty = way if empty is None else empty
            elif stored == url_hash:
                self.buf[offset : offset + HINT_RECORD_BYTES] = record
                self._promote(slots, way)
                return None
        victim = None
        if empty is None:  # set full: displace the coldest slot
            empty = self.ways - 1
            victim = HintRecord.unpack(bytes(self.buf[slots[empty] : slots[empty] + 16]))
            self.conflict_evictions += 1
        self.buf[slots[empty] : slots[empty] + HINT_RECORD_BYTES] = record
        self._promote(slots, empty)
        return victim

    def invalidate(self, url_hash: int) -> bool:
        for offset in self._slots(url_hash):
            stored = _SLOT.unpack_from(self.buf, offset)[0]
            if stored != INVALID_HASH and stored == url_hash:
                self.buf[offset : offset + HINT_RECORD_BYTES] = bytes(HINT_RECORD_BYTES)
                self.invalidations += 1
                return True
        return False


COUNTERS = ("lookups", "insertions", "conflict_evictions", "invalidations")


class TestAgainstLoopReference:
    @settings(deadline=None, max_examples=150)
    @given(
        n_sets=st.integers(1, 4),
        associativity=st.integers(1, 4),
        data=st.data(),
    )
    def test_packed_cache_matches_slot_loop(self, n_sets, associativity, data):
        """Buffers, return values and counters agree after every step.

        Keys are drawn to collide: small hashes over at most four sets,
        multiples of ``n_sets`` (set 0), and full 64-bit values; queries
        also ask for the reserved hash 0 and for keys never stored.
        """
        key = st.one_of(
            st.integers(1, 16),
            st.integers(1, 8).map(lambda k: k * n_sets),
            st.integers(1, 2**64 - 1),
        )
        query = st.one_of(st.just(INVALID_HASH), key)
        operations = data.draw(
            st.lists(
                st.one_of(
                    st.tuples(st.just("inform"), key, st.integers(0, 2**16 - 1)),
                    st.tuples(st.just("find_nearest"), query),
                    st.tuples(st.just("invalidate"), query),
                ),
                max_size=60,
            )
        )
        capacity = n_sets * associativity * HINT_RECORD_BYTES
        oracle = LoopHintCache(n_sets, associativity)
        cache = HintCache(capacity, associativity=associativity)
        with tempfile.TemporaryDirectory() as tmp, MmapHintStore(
            Path(tmp) / "hints.db", capacity, associativity=associativity
        ) as store:
            for name, url_hash, *node in operations:
                args = (url_hash, MachineId.for_node(node[0])) if node else (url_hash,)
                expected = getattr(oracle, name)(*args)
                assert getattr(cache, name)(*args) == expected
                assert getattr(store, name)(*args) == expected
                assert bytes(cache._buf) == oracle.buf
                assert bytes(store._cache._buf) == oracle.buf
                for counter in COUNTERS:
                    assert getattr(cache, counter) == getattr(oracle, counter)
                    assert getattr(store, counter) == getattr(oracle, counter)

    def test_inform_validates_before_writing(self):
        cache = make_cache(entries=8)
        for bad_hash in (INVALID_HASH, 2**64, -1):
            with pytest.raises(ValueError):
                cache.inform(bad_hash, MachineId.for_node(1))
        assert bytes(cache._buf) == bytes(cache.capacity_bytes)
