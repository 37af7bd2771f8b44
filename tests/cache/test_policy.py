"""Conformance and differential tests for the replacement-policy layer.

Three groups:

* **Conformance** -- every policy (LRU, LFU, Random) must uphold the
  contracts the architectures rely on: capacity is never exceeded, the
  eviction callback fires exactly once per victim, the just-inserted key
  is never its own victim, and behaviour is a pure function of the
  construction seed.
* **Policy semantics** -- LFU picks the least-frequent (oldest among
  ties), Random draws uniformly from its seeded stream, and both compose
  with the version/consistency machinery they inherit.
* **LRU differential** -- a Hypothesis-driven byte-identity check of the
  hook-refactored ``LRUCache`` against an independent model of the
  pre-refactor semantics, so the policy seam provably changed nothing
  for the default policy.
"""

from __future__ import annotations

import gc
from collections import OrderedDict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.lru import LookupResult, LRUCache
from repro.cache.policy import (
    DEFAULT_POLICY,
    POLICY_NAMES,
    LFUCache,
    PolicySpec,
    RandomCache,
    ReplacementPolicy,
    parse_policy_map,
    parse_policy_spec,
    policy_payload,
)

SPECS = {
    "lru": PolicySpec("lru"),
    "lfu": PolicySpec("lfu"),
    "random": PolicySpec("random", seed=42),
}


def drive(cache, operations):
    """Replay ``(op, *args)`` tuples; returns per-op observable outcomes."""
    outcomes = []
    for op in operations:
        kind = op[0]
        if kind == "lookup":
            outcomes.append(("lookup", cache.lookup(op[1], op[2]).name))
        elif kind == "insert":
            outcomes.append(("insert", tuple(cache.insert(op[1], op[2], op[3]))))
        elif kind == "invalidate":
            outcomes.append(("invalidate", cache.invalidate(op[1])))
        elif kind == "remove":
            outcomes.append(("remove", cache.remove(op[1])))
        else:  # pragma: no cover - defensive
            raise AssertionError(kind)
    return outcomes


def mixed_stream(n=400, seed=5):
    """A deterministic op stream with enough churn to force evictions."""
    import random as _random

    rng = _random.Random(seed)
    ops = []
    for _ in range(n):
        key = rng.randrange(40)
        roll = rng.random()
        if roll < 0.55:
            ops.append(("insert", key, rng.randrange(1, 400), rng.randrange(3)))
        elif roll < 0.9:
            ops.append(("lookup", key, rng.randrange(3)))
        elif roll < 0.95:
            ops.append(("invalidate", key))
        else:
            ops.append(("remove", key))
    return ops


@pytest.mark.parametrize("name", POLICY_NAMES)
class TestConformance:
    def test_satisfies_protocol(self, name):
        cache = SPECS[name].build(1000)
        assert isinstance(cache, ReplacementPolicy)
        assert cache.policy_name == name

    def test_capacity_never_exceeded(self, name):
        cache = SPECS[name].build(1000)
        for op in mixed_stream():
            drive(cache, [op])
            assert cache.used_bytes <= 1000
            assert cache.occupancy_bytes == cache.used_bytes
            assert cache.used_bytes == sum(
                cache.peek(k).size for k in cache
            )

    def test_eviction_callback_fires_exactly_once_per_victim(self, name):
        departures = []
        cache = SPECS[name].build(
            800, on_evict=lambda key, entry, reason: departures.append((key, reason))
        )
        returned = []
        for op in mixed_stream():
            outcome = drive(cache, [op])[0]
            if outcome[0] == "insert":
                returned.extend(outcome[1])
        capacity_departures = [k for k, reason in departures if reason == "capacity"]
        assert capacity_departures == returned
        assert len(returned) > 0  # the stream actually forces evictions
        # every departure was reported with a known reason
        assert {reason for _, reason in departures} <= {
            "capacity",
            "invalidate",
            "remove",
        }

    def test_incoming_key_is_never_its_own_victim(self, name):
        cache = SPECS[name].build(1000)
        for op in mixed_stream(seed=11):
            if op[0] == "insert":
                evicted = cache.insert(op[1], op[2], op[3])
                assert op[1] not in evicted
                if op[2] <= 1000:
                    assert op[1] in cache
            else:
                drive(cache, [op])

    def test_deterministic_under_fixed_seed(self, name):
        stream = mixed_stream(seed=23)
        first = SPECS[name].build(700, salt=9)
        second = SPECS[name].build(700, salt=9)
        assert drive(first, stream) == drive(second, stream)
        assert list(first) == list(second)
        assert first.used_bytes == second.used_bytes

    def test_oversize_objects_rejected_not_thrashed(self, name):
        cache = SPECS[name].build(500)
        cache.insert(1, 200, 0)
        assert cache.insert(2, 501, 0) == []
        assert 2 not in cache
        assert 2 in cache.oversize_rejections
        assert 1 in cache  # nothing was evicted to make room

    def test_clear_resets_policy_state(self, name):
        cache = SPECS[name].build(1000)
        drive(cache, mixed_stream(n=100, seed=3))
        cache.clear()
        assert len(cache) == 0
        assert cache.used_bytes == 0
        # The cache keeps working after a crash-style clear.
        cache.insert(7, 100, 0)
        assert cache.lookup(7, 0) is LookupResult.HIT


@pytest.mark.parametrize("capacity", [None, 10**9], ids=["unbounded", "bounded"])
@pytest.mark.parametrize("name", POLICY_NAMES)
def test_entries_add_no_gc_tracked_objects(name, capacity):
    """A cache stores plain integers, not one object per entry.

    A full collection walks every object the cyclic garbage collector
    tracks, so a tracked object per entry would make every collection
    slower as the paper's unbounded caches fill up.
    """
    cache = SPECS[name].build(capacity)
    gc.collect()
    before = len(gc.get_objects())
    for key in range(10_000):
        cache.insert(key, 100, 0)
    assert len(cache) == 10_000
    assert len(gc.get_objects()) - before < 100


class TestLFU:
    def test_victim_is_least_frequent(self):
        cache = LFUCache(300)
        cache.insert(1, 100, 0)
        cache.insert(2, 100, 0)
        cache.insert(3, 100, 0)
        cache.lookup(1, 0)
        cache.lookup(1, 0)
        cache.lookup(3, 0)
        assert cache.insert(4, 100, 0) == [2]

    def test_tie_breaks_least_recent(self):
        cache = LFUCache(300)
        cache.insert(1, 100, 0)
        cache.insert(2, 100, 0)
        cache.insert(3, 100, 0)
        cache.lookup(1, 0)  # all at freq 1 except key 1; 2 is older than 3
        assert cache.insert(4, 100, 0) == [2]

    def test_reinsert_counts_as_access(self):
        cache = LFUCache(300)
        cache.insert(1, 100, 0)
        cache.insert(1, 100, 0)  # freq 2
        cache.insert(2, 100, 0)
        cache.insert(3, 100, 0)
        assert cache.insert(4, 100, 0) == [2]

    def test_demote_ages_frequency(self):
        cache = LFUCache(300)
        cache.insert(1, 100, 0)
        for _ in range(5):
            cache.lookup(1, 0)
        cache.insert(2, 100, 0)
        cache.insert(3, 100, 0)
        cache.touch_lru_demote(1)  # hot object aged to frequency 0
        assert cache.insert(4, 100, 0) == [1]


class TestRandom:
    def test_same_seed_same_victims(self):
        stream = mixed_stream(seed=31)
        a = RandomCache(600, seed=99)
        b = RandomCache(600, seed=99)
        assert drive(a, stream) == drive(b, stream)

    def test_different_seeds_diverge(self):
        stream = mixed_stream(seed=31)
        a = drive(RandomCache(600, seed=1), stream)
        b = drive(RandomCache(600, seed=2), stream)
        assert a != b

    def test_spec_salt_decorrelates_nodes(self):
        stream = mixed_stream(seed=31)
        spec = PolicySpec("random", seed=4)
        a = drive(spec.build(600, salt=0), stream)
        b = drive(spec.build(600, salt=1), stream)
        assert a != b

    def test_hits_do_not_touch_the_rng(self):
        # Random replacement is memoryless: a lookup-heavy prefix must not
        # shift later victim draws.
        tail = [("insert", 100 + i, 90, 0) for i in range(12)]
        a = RandomCache(600, seed=7)
        b = RandomCache(600, seed=7)
        for cache in (a, b):
            for key in range(6):
                cache.insert(key, 90, 0)
        for _ in range(50):
            a.lookup(3, 0)  # extra hits on one side only
        assert drive(a, tail) == drive(b, tail)


class TestSpecParsing:
    def test_parse_single_token(self):
        assert parse_policy_spec("lfu") == PolicySpec("lfu")
        assert parse_policy_spec("random:7") == PolicySpec("random", seed=7)

    def test_parse_rejects_unknown_and_bad_seed(self):
        with pytest.raises(ValueError, match="unknown policy"):
            parse_policy_spec("arc")
        with pytest.raises(ValueError, match="takes no seed"):
            parse_policy_spec("lfu:3")
        with pytest.raises(ValueError, match="bad policy seed"):
            parse_policy_spec("random:x")
        with pytest.raises(ValueError, match="unknown policy"):
            PolicySpec("fifo")

    def test_parse_map_per_level(self):
        policies = parse_policy_map("l1=lfu,l2=lru,l3=random:7")
        assert policies == {
            "l1": PolicySpec("lfu"),
            "l2": PolicySpec("lru"),
            "l3": PolicySpec("random", seed=7),
        }

    def test_parse_map_bare_policy_applies_everywhere(self):
        assert parse_policy_map("lfu") == {
            "l1": PolicySpec("lfu"),
            "l2": PolicySpec("lfu"),
            "l3": PolicySpec("lfu"),
        }

    def test_parse_map_rejects_bad_input(self):
        for bad in ("", "l4=lfu", "l1=lfu,l1=lru", "l1"):
            with pytest.raises(ValueError):
                parse_policy_map(bad)

    def test_payload_collapses_defaults(self):
        assert policy_payload(None) is None
        assert policy_payload({"l1": DEFAULT_POLICY, "l2": PolicySpec("lru")}) is None
        assert policy_payload({"l1": PolicySpec("lfu"), "l2": DEFAULT_POLICY}) == {
            "l1": {"name": "lfu"}
        }
        # the seed is identity-relevant only under random
        assert PolicySpec("lfu", seed=5).to_payload() == PolicySpec("lfu").to_payload()
        assert PolicySpec("random", seed=5).to_payload() == {
            "name": "random",
            "seed": 5,
        }

    def test_fingerprint_policy_axis(self):
        from repro.runner.fingerprint import simulation_fingerprint
        from repro.traces.profiles import DEC

        profile = DEC.scaled(0.0002)
        bare = simulation_fingerprint(profile, 7)
        all_lru = simulation_fingerprint(
            profile, 7, policies={"l1": DEFAULT_POLICY}
        )
        lfu = simulation_fingerprint(
            profile, 7, policies={"l1": PolicySpec("lfu")}
        )
        assert bare == all_lru  # pre-policy addresses preserved exactly
        assert lfu != bare
        assert simulation_fingerprint(
            profile, 7, policies={"l1": PolicySpec("random", seed=1)}
        ) != simulation_fingerprint(
            profile, 7, policies={"l1": PolicySpec("random", seed=2)}
        )


# ----------------------------------------------------------------------
# LRU old-vs-new differential
# ----------------------------------------------------------------------
class ModelLRU:
    """Independent model of the pre-refactor ``LRUCache`` semantics.

    Deliberately naive -- an ordered dict of ``key -> (size, version)``
    with inline recency moves and front-first capacity eviction -- so it
    shares none of the refactored hook structure it checks.
    """

    def __init__(self, capacity):
        self.capacity = capacity
        self.entries: OrderedDict[int, tuple[int, int]] = OrderedDict()
        self.departures: list[tuple[int, str]] = []

    @property
    def used(self):
        return sum(size for size, _ in self.entries.values())

    def lookup(self, key, version):
        if key not in self.entries:
            return "MISS"
        size, stored = self.entries[key]
        if stored < version:
            del self.entries[key]
            self.departures.append((key, "invalidate"))
            return "STALE"
        self.entries.move_to_end(key)
        return "HIT"

    def insert(self, key, size, version):
        if self.capacity is not None and size > self.capacity:
            if key in self.entries and self.entries[key][1] < version:
                del self.entries[key]
                self.departures.append((key, "invalidate"))
            return []
        self.entries.pop(key, None)
        self.entries[key] = (size, version)
        self.entries.move_to_end(key)
        evicted = []
        if self.capacity is not None:
            while self.used > self.capacity and len(self.entries) > 1:
                victim = next(iter(self.entries))
                if victim == key:  # pragma: no cover - unreachable for LRU
                    break
                del self.entries[victim]
                self.departures.append((victim, "capacity"))
                evicted.append(victim)
        return evicted

    def invalidate(self, key):
        if key not in self.entries:
            return False
        del self.entries[key]
        self.departures.append((key, "invalidate"))
        return True

    def remove(self, key):
        if key not in self.entries:
            return False
        del self.entries[key]
        self.departures.append((key, "remove"))
        return True


_ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("insert"),
            st.integers(0, 15),
            st.integers(0, 300),
            st.integers(0, 2),
        ),
        st.tuples(st.just("lookup"), st.integers(0, 15), st.integers(0, 2)),
        st.tuples(st.just("invalidate"), st.integers(0, 15)),
        st.tuples(st.just("remove"), st.integers(0, 15)),
    ),
    max_size=150,
)


@settings(max_examples=200, deadline=None)
@given(operations=_ops, capacity=st.one_of(st.none(), st.integers(0, 800)))
def test_lru_matches_prerefactor_model(operations, capacity):
    """The hook-refactored LRU is byte-identical to the old semantics:
    same lookup results, same eviction lists in the same order, same
    callback stream, same final contents and recency order."""
    departures = []
    cache = LRUCache(
        capacity, on_evict=lambda key, entry, reason: departures.append((key, reason))
    )
    model = ModelLRU(capacity)
    for op in operations:
        kind = op[0]
        if kind == "insert":
            assert cache.insert(op[1], op[2], op[3]) == model.insert(
                op[1], op[2], op[3]
            )
        elif kind == "lookup":
            assert cache.lookup(op[1], op[2]).name == model.lookup(op[1], op[2])
        elif kind == "invalidate":
            assert cache.invalidate(op[1]) == model.invalidate(op[1])
        else:
            assert cache.remove(op[1]) == model.remove(op[1])
        assert cache.used_bytes == model.used
    assert list(cache) == list(model.entries)
    assert departures == model.departures
    assert {k: (e.size, e.version) for k, e in zip(cache, map(cache.peek, cache))} == {
        k: v for k, v in model.entries.items()
    }
