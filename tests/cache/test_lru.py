"""Tests for the byte-capacity LRU cache."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.lru import LookupResult, LRUCache


class TestBasicOperations:
    def test_miss_on_empty(self):
        cache = LRUCache(1000)
        assert cache.lookup(1, 0) is LookupResult.MISS

    def test_insert_then_hit(self):
        cache = LRUCache(1000)
        cache.insert(1, 100, 0)
        assert cache.lookup(1, 0) is LookupResult.HIT
        assert 1 in cache
        assert len(cache) == 1

    def test_used_bytes_tracks_sizes(self):
        cache = LRUCache(1000)
        cache.insert(1, 100, 0)
        cache.insert(2, 250, 0)
        assert cache.used_bytes == 350

    def test_reinsert_same_key_replaces_size(self):
        cache = LRUCache(1000)
        cache.insert(1, 100, 0)
        cache.insert(1, 400, 0)
        assert cache.used_bytes == 400
        assert len(cache) == 1

    def test_peek_does_not_promote(self):
        cache = LRUCache(250)
        cache.insert(1, 100, 0)
        cache.insert(2, 100, 0)
        cache.peek(1)  # does not touch LRU order
        evicted = cache.insert(3, 100, 0)
        assert evicted == [1]

    def test_remove(self):
        cache = LRUCache(1000)
        cache.insert(1, 100, 0)
        assert cache.remove(1)
        assert not cache.remove(1)
        assert cache.used_bytes == 0


class TestEviction:
    def test_lru_order(self):
        cache = LRUCache(300)
        cache.insert(1, 100, 0)
        cache.insert(2, 100, 0)
        cache.insert(3, 100, 0)
        cache.lookup(1, 0)  # promote 1
        evicted = cache.insert(4, 100, 0)
        assert evicted == [2]

    def test_multi_eviction_for_large_insert(self):
        cache = LRUCache(300)
        for key in (1, 2, 3):
            cache.insert(key, 100, 0)
        evicted = cache.insert(4, 200, 0)
        assert set(evicted) == {1, 2}

    def test_oversized_object_not_cached(self):
        cache = LRUCache(100)
        assert cache.insert(1, 500, 0) == []
        assert 1 not in cache

    def test_infinite_capacity_never_evicts(self):
        cache = LRUCache(None)
        for key in range(100):
            assert cache.insert(key, 10**6, 0) == []
        assert len(cache) == 100

    def test_eviction_callback_reasons(self):
        events = []
        cache = LRUCache(150, on_evict=lambda k, e, r: events.append((k, r)))
        cache.insert(1, 100, 0)
        cache.insert(2, 100, 0)  # evicts 1 for capacity
        cache.invalidate(2)
        cache.insert(3, 100, 0)
        cache.remove(3)
        assert events == [(1, "capacity"), (2, "invalidate"), (3, "remove")]


class TestVersioning:
    def test_stale_lookup_invalidates(self):
        cache = LRUCache(1000)
        cache.insert(1, 100, version=0)
        assert cache.lookup(1, version=1) is LookupResult.STALE
        assert 1 not in cache

    def test_newer_cached_version_still_hits(self):
        cache = LRUCache(1000)
        cache.insert(1, 100, version=5)
        assert cache.lookup(1, version=3) is LookupResult.HIT

    def test_touch_lru_demote_moves_to_front_of_eviction(self):
        cache = LRUCache(300)
        cache.insert(1, 100, 0)
        cache.insert(2, 100, 0)
        cache.insert(3, 100, 0)
        cache.touch_lru_demote(3)
        evicted = cache.insert(4, 100, 0)
        assert evicted == [3]


class TestValidation:
    def test_rejects_negative_capacity(self):
        with pytest.raises(ValueError):
            LRUCache(-1)

    def test_rejects_negative_size(self):
        with pytest.raises(ValueError):
            LRUCache(100).insert(1, -5, 0)


class TestInvariants:
    @settings(deadline=None, max_examples=60)
    @given(
        st.lists(
            st.tuples(st.integers(0, 20), st.integers(1, 120), st.integers(0, 3)),
            max_size=120,
        )
    )
    def test_capacity_and_accounting_invariants(self, operations):
        capacity = 500
        cache = LRUCache(capacity)
        for key, size, version in operations:
            cache.insert(key, size, version)
            assert cache.used_bytes <= capacity
            expected = sum(cache.peek(k).size for k in cache)
            assert cache.used_bytes == expected
