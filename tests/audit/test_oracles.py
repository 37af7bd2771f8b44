"""Unit tests for the brute-force reference oracles themselves.

The differential harness only catches bugs if the oracles are right, so
each oracle's semantics are pinned here by hand-built scenarios with
known answers (no production component in the loop).
"""

from __future__ import annotations

import pytest

from repro.audit.oracles import (
    OracleHintDirectory,
    OracleLRUCache,
    oracle_data_hierarchy_run,
)
from repro.cache.lru import LookupResult
from repro.faults.events import FaultPlan, NodeCrash
from repro.hierarchy.topology import HierarchyTopology
from repro.netmodel.model import AccessPoint
from repro.netmodel.testbed import TestbedCostModel
from repro.traces.records import Request, Trace

TOPOLOGY = HierarchyTopology(clients_per_l1=2, l1_per_l2=4, n_l2=2)


# ----------------------------------------------------------------------
# OracleLRUCache
# ----------------------------------------------------------------------
class TestOracleLRUCache:
    def test_lru_order_and_eviction(self):
        cache = OracleLRUCache(100)
        cache.insert(1, 40, 0)
        cache.insert(2, 40, 0)
        assert cache.lookup(1, 0) is LookupResult.HIT  # 1 becomes MRU
        evicted = cache.insert(3, 40, 0)  # over budget: 2 is LRU now
        assert evicted == [2]
        assert cache.keys() == [1, 3]
        assert cache.used_bytes == 80
        assert cache.evictions == 1

    def test_stale_lookup_invalidates(self):
        cache = OracleLRUCache()
        cache.insert(1, 10, 0)
        assert cache.lookup(1, 1) is LookupResult.STALE
        assert cache.lookup(1, 1) is LookupResult.MISS
        assert cache.invalidations == 1

    def test_oversize_insert_mirrors_fixed_semantics(self):
        cache = OracleLRUCache(100)
        cache.insert(5, 60, 1)
        assert cache.insert(5, 400, 2) == []
        assert cache.peek(5) is None  # the stale v1 copy was invalidated
        assert cache.invalidations == 1
        assert 5 in cache.oversize_rejections
        # A later fitting insert clears the rejection mark.
        cache.insert(5, 30, 3)
        assert 5 not in cache.oversize_rejections

    def test_demote_and_clear(self):
        cache = OracleLRUCache()
        cache.insert(1, 10, 0)
        cache.insert(2, 10, 0)
        cache.touch_lru_demote(2)
        assert cache.keys() == [2, 1]
        assert cache.clear() == [2, 1]
        assert len(cache) == 0
        assert cache.used_bytes == 0

    def test_used_bytes_is_recounted_not_tracked(self):
        cache = OracleLRUCache()
        cache.insert(1, 25, 0)
        cache.insert(2, 17, 0)
        cache._entries[0][1] = 99  # corrupt an entry directly...
        assert cache.used_bytes == 99 + 17  # ...and the recount sees it


# ----------------------------------------------------------------------
# OracleHintDirectory
# ----------------------------------------------------------------------
class TestOracleHintDirectory:
    def test_zero_delay_visibility(self):
        directory = OracleHintDirectory()
        directory.inform(1.0, object_id=7, node=2, version=0)
        holders, false_negative = directory.find(1.0, 7, requester=0)
        assert holders == frozenset({2})
        assert not false_negative
        # The requester's own copy is excluded from holders.
        holders, _ = directory.find(1.0, 7, requester=2)
        assert holders == frozenset()

    def test_propagation_delay_creates_false_negative(self):
        directory = OracleHintDirectory(propagation_delay_s=10.0)
        directory.inform(0.0, object_id=1, node=3, version=0)
        holders, false_negative = directory.find(5.0, 1, requester=0)
        assert holders == frozenset()
        assert false_negative  # truth knows, visibility lags
        holders, false_negative = directory.find(10.0, 1, requester=0)
        assert holders == frozenset({3})
        assert not false_negative
        assert directory.false_negatives == 1

    def test_invisible_inform_never_becomes_visible(self):
        directory = OracleHintDirectory()
        directory.inform(0.0, object_id=1, node=2, version=0, visible=False)
        holders, false_negative = directory.find(100.0, 1, requester=0)
        assert holders == frozenset()
        assert false_negative
        assert directory.truth_holders(1) == {2: 0}

    def test_retract_and_drop(self):
        directory = OracleHintDirectory()
        directory.inform(0.0, 1, 2, 0)
        directory.inform(0.0, 1, 4, 1)
        directory.retract(1.0, 1, 2)
        assert directory.truth_holders(1) == {4: 1}
        holders, _ = directory.find(2.0, 1, requester=0)
        assert holders == frozenset({4})
        directory.drop_visible(2.0, 1, 4)
        assert directory.corrections == 1
        holders, false_negative = directory.find(3.0, 1, requester=0)
        assert holders == frozenset()
        assert false_negative  # truth still has node 4; visibility dropped
        # Dropping an already-invisible holder is not a correction.
        directory.drop_visible(3.0, 1, 4)
        assert directory.corrections == 1

    def test_truth_replay_keeps_latest_version(self):
        directory = OracleHintDirectory()
        directory.inform(0.0, 1, 2, 0)
        directory.inform(5.0, 1, 2, 3)
        assert directory.truth_holders(1) == {2: 3}


# ----------------------------------------------------------------------
# oracle_data_hierarchy_run
# ----------------------------------------------------------------------
def _trace(requests, duration=100.0, warmup=0.0):
    return Trace(
        profile_name="oracle-unit",
        requests=requests,
        n_objects=8,
        n_clients=TOPOLOGY.n_clients_covered,
        duration=duration,
        warmup=warmup,
    )


def _request(time, object_id, *, client_id=0, size=100, version=0, error=False,
             cacheable=True):
    return Request(
        time=time,
        client_id=client_id,
        object_id=object_id,
        size=size,
        version=version,
        cacheable=cacheable,
        error=error,
    )


class TestOracleDataHierarchyRun:
    def test_miss_then_hits_up_the_hierarchy(self):
        model = TestbedCostModel()
        # Same object: first a compulsory miss, then an L1 hit, then an
        # L2 hit from a sibling L1 under the same parent.
        sibling = TOPOLOGY.clients_per_l1  # first client of the second L1
        trace = _trace(
            [
                _request(1.0, 5, client_id=0),
                _request(2.0, 5, client_id=0),
                _request(3.0, 5, client_id=sibling),
            ]
        )
        out = oracle_data_hierarchy_run(trace, TOPOLOGY, model)
        points = [record.point for record in out.records]
        assert points == [AccessPoint.SERVER, AccessPoint.L1, AccessPoint.L2]
        assert [record.hit for record in out.records] == [False, True, True]
        assert [record.remote_hit for record in out.records] == [False, False, True]
        assert out.measured_requests == 3
        assert out.total_ms == sum(record.time_ms for record in out.records)
        assert out.records[1].time_ms == model.hierarchical_ms(AccessPoint.L1, 100)

    def test_warmup_counts_but_is_not_measured(self):
        trace = _trace(
            [_request(1.0, 5), _request(60.0, 5)], duration=100.0, warmup=50.0
        )
        out = oracle_data_hierarchy_run(trace, TOPOLOGY, TestbedCostModel())
        assert out.warmup_requests == 1
        assert out.measured_requests == 1
        assert len(out.measured_records()) == 1
        assert out.measured_records()[0].point is AccessPoint.L1

    def test_error_precedence_over_uncachable(self):
        both = _request(1.0, 5, error=True, cacheable=False)
        out = oracle_data_hierarchy_run(
            _trace([both]), TOPOLOGY, TestbedCostModel()
        )
        assert out.skipped_error == 1
        assert out.skipped_uncachable == 0
        out = oracle_data_hierarchy_run(
            _trace([both]), TOPOLOGY, TestbedCostModel(), include_uncachable=True
        )
        assert out.included_error == 1
        assert out.included_uncachable == 0
        assert out.measured_requests == 1

    def test_l1_crash_forces_timeout_fallback(self):
        plan = FaultPlan(events=(NodeCrash(time=5.0, kind="l1", node=0),), seed=1)
        trace = _trace([_request(1.0, 5), _request(10.0, 5)])
        out = oracle_data_hierarchy_run(
            trace, TOPOLOGY, TestbedCostModel(), fault_plan=plan
        )
        before, after = out.records
        assert not before.timeout_fallback
        assert after.timeout_fallback
        assert after.point is AccessPoint.SERVER
        assert after.fault_added_ms >= plan.timeout_ms
        assert out.timeout_fallbacks == 1

    def test_empty_fault_plan_is_healthy_mode(self):
        trace = _trace([_request(1.0, 5), _request(2.0, 5)])
        healthy = oracle_data_hierarchy_run(trace, TOPOLOGY, TestbedCostModel())
        empty = oracle_data_hierarchy_run(
            trace, TOPOLOGY, TestbedCostModel(),
            fault_plan=FaultPlan(events=(), seed=1),
        )
        assert healthy.total_ms == empty.total_ms
        assert [r.point for r in healthy.records] == [r.point for r in empty.records]

    def test_capacity_pressure_evicts_in_oracle_caches(self):
        # Two objects that cannot coexist in a 150-byte L1.
        trace = _trace(
            [
                _request(1.0, 1, size=100),
                _request(2.0, 2, size=100),
                _request(3.0, 1, size=100),  # evicted at step 2 -> L2 hit
            ]
        )
        out = oracle_data_hierarchy_run(
            trace, TOPOLOGY, TestbedCostModel(), l1_bytes=150
        )
        assert [record.point for record in out.records] == [
            AccessPoint.SERVER,
            AccessPoint.SERVER,
            AccessPoint.L2,
        ]


def test_oracle_rejects_negative_capacity():
    with pytest.raises(ValueError):
        OracleLRUCache(-1)
    with pytest.raises(ValueError):
        OracleHintDirectory(-0.5)
