"""Regression tests for the bugs the audit subsystem was built to catch.

Each test here fails on the pre-audit code and passes after the fix:

* **engine clock skew** -- the simulated clock (telemetry timeline and
  fault injector) used to advance only for *processed* requests, so a
  run of skipped error/uncachable requests stalled time and scheduled
  faults fired late;
* **double counting** -- a request that was both error and uncachable
  used to increment ``included_error`` *and* ``included_uncachable``
  under ``include_uncachable=True``, breaking the partition;
* **stale survivor** -- an oversize insert used to leave an older
  version of the same key serving hits, violating strong consistency.

The fourth bug of this series (push-half rounding half *down* in odd
sibling groups) is pinned by
``tests/push/test_hierarchical.py::test_push_half_rounds_up_in_odd_groups``.
"""

from __future__ import annotations

import pytest

from repro.cache.lru import LookupResult, LRUCache
from repro.faults.events import FaultPlan, NodeCrash, NodeRecover
from repro.faults.injector import FaultInjector
from repro.hierarchy.data_hierarchy import DataHierarchy
from repro.hierarchy.topology import HierarchyTopology
from repro.netmodel.testbed import TestbedCostModel
from repro.obs.telemetry import RunTelemetry
from repro.sim.engine import run_simulation
from repro.traces.records import Request, Trace

TOPOLOGY = HierarchyTopology(clients_per_l1=2, l1_per_l2=4, n_l2=2)


def _request(time, *, object_id=0, error=False, cacheable=True):
    return Request(
        time=time,
        client_id=0,
        object_id=object_id,
        size=100,
        version=0,
        cacheable=cacheable,
        error=error,
    )


# ----------------------------------------------------------------------
# bug 1: engine clock skew across skipped requests
# ----------------------------------------------------------------------
def test_clock_advances_through_skipped_requests(monkeypatch):
    """Telemetry and injector see *every* request time, skipped or not.

    The fix is output-invariant for most traces (the injector catches up
    eventually), so this test pins the call pattern itself: a run of
    skipped error requests spans a scheduled crash, and both observers
    must still be advanced at each skipped request's timestamp.
    """
    requests = [_request(0.0)]
    requests += [_request(50.0 * i, error=True) for i in range(1, 10)]  # 50..450
    requests.append(_request(500.0))
    trace = Trace(
        profile_name="clock-skew",
        requests=requests,
        n_objects=1,
        n_clients=TOPOLOGY.n_clients_covered,
        duration=600.0,
    )
    plan = FaultPlan(
        events=(
            NodeCrash(time=200.0, kind="l1", node=0),
            NodeRecover(time=460.0, kind="l1", node=0),
        ),
        seed=1,
    )

    injector_times: list[float] = []
    injector_advance = FaultInjector.advance

    def spy_injector(self, now):
        injector_times.append(now)
        injector_advance(self, now)

    # The engine imports FaultInjector inside run_simulation, so patching
    # the class method intercepts the instance it constructs.
    monkeypatch.setattr(FaultInjector, "advance", spy_injector)

    telemetry_times: list[float] = []
    telemetry_advance = RunTelemetry.advance

    def spy_telemetry(self, now):
        telemetry_times.append(now)
        telemetry_advance(self, now)

    monkeypatch.setattr(RunTelemetry, "advance", spy_telemetry)

    expected = [request.time for request in trace.requests]

    # Injector-only run: the engine is the sole advance() caller, so the
    # spy must record exactly one call per trace request.
    run_simulation(
        trace,
        DataHierarchy(TOPOLOGY, TestbedCostModel()),
        fault_plan=plan,
        engine="reference",
    )
    assert injector_times == expected

    # Telemetry run: RunTelemetry.advance is likewise engine-only.  (The
    # timeline additionally drives the injector at bin edges, which is
    # why the injector assertion above runs telemetry-free.)
    metrics = run_simulation(
        trace,
        DataHierarchy(TOPOLOGY, TestbedCostModel()),
        fault_plan=plan,
        telemetry=RunTelemetry(bin_s=100.0),
        engine="reference",
    )
    assert telemetry_times == expected
    # The crash scheduled inside the skipped run did fire (and recover).
    assert metrics.skipped_error == 9
    assert metrics.measured_requests == 2


def test_clock_skew_fires_fault_during_skipped_run(monkeypatch):
    """A crash+recover window wholly inside skipped requests still fires.

    Pre-fix, the injector jumped from t=0 straight to the next processed
    request, so it applied crash and recover back-to-back *at that later
    time*; the spy above pins the timing, this pins that the events were
    applied from a skipped request's advance call, not a processed one.
    """
    applied_at: list[float] = []
    injector_advance = FaultInjector.advance

    def spy(self, now):
        before = self.stats.crashes
        injector_advance(self, now)
        if self.stats.crashes != before:
            applied_at.append(now)

    monkeypatch.setattr(FaultInjector, "advance", spy)

    requests = [_request(0.0)]
    requests += [_request(100.0 + 10.0 * i, error=True) for i in range(5)]  # 100..140
    requests.append(_request(400.0))
    trace = Trace(
        profile_name="clock-skew-window",
        requests=requests,
        n_objects=1,
        n_clients=TOPOLOGY.n_clients_covered,
        duration=500.0,
    )
    plan = FaultPlan(events=(NodeCrash(time=115.0, kind="l1", node=0),), seed=1)
    run_simulation(trace, DataHierarchy(TOPOLOGY, TestbedCostModel()), fault_plan=plan)
    assert applied_at == [120.0]  # the first *skipped* request past t=115


# ----------------------------------------------------------------------
# bug 2: error+uncachable double count under include_uncachable
# ----------------------------------------------------------------------
def test_error_and_uncachable_counts_once_when_included():
    trace = Trace(
        profile_name="double-count",
        requests=[
            _request(0.0),
            _request(1.0, error=True, cacheable=False),
            _request(2.0, error=False, cacheable=False),
        ],
        n_objects=1,
        n_clients=TOPOLOGY.n_clients_covered,
        duration=10.0,
    )
    metrics = run_simulation(
        trace,
        DataHierarchy(TOPOLOGY, TestbedCostModel()),
        include_uncachable=True,
    )
    # Error takes precedence: the both-flags request counts exactly once.
    assert metrics.included_error == 1
    assert metrics.included_uncachable == 1
    assert metrics.measured_requests == 3


def test_error_and_uncachable_skips_once_when_excluded():
    trace = Trace(
        profile_name="double-count-skip",
        requests=[_request(1.0, error=True, cacheable=False)],
        n_objects=1,
        n_clients=TOPOLOGY.n_clients_covered,
        duration=10.0,
    )
    metrics = run_simulation(trace, DataHierarchy(TOPOLOGY, TestbedCostModel()))
    assert metrics.skipped_error == 1
    assert metrics.skipped_uncachable == 0
    assert metrics.measured_requests == 0


# ----------------------------------------------------------------------
# bug 3: oversize insert left a stale older version serving hits
# ----------------------------------------------------------------------
def test_oversize_insert_invalidates_stale_survivor():
    evictions: list[tuple[int, str]] = []
    cache = LRUCache(100, on_evict=lambda key, entry, reason: evictions.append((key, reason)))
    cache.insert(7, 50, 1)
    assert cache.lookup(7, 1) is LookupResult.HIT

    # Version 2 is too large to cache -- but version 1 must not survive.
    assert cache.insert(7, 200, 2) == []
    assert cache.peek(7) is None
    assert cache.lookup(7, 2) is LookupResult.MISS
    assert cache.invalidations == 1
    assert evictions == [(7, "invalidate")]
    assert cache.used_bytes == 0
    assert 7 in cache.oversize_rejections


def test_oversize_insert_keeps_current_version_copy():
    """Same-version oversize sighting: the held copy is still valid."""
    cache = LRUCache(100)
    cache.insert(3, 40, 5)
    cache.insert(3, 200, 5)
    entry = cache.peek(3)
    assert entry is not None
    assert (entry.size, entry.version) == (40, 5)
    assert cache.invalidations == 0
    assert cache.lookup(3, 5) is LookupResult.HIT


@pytest.mark.parametrize("version_gap", [1, 3])
def test_oversize_stale_survivor_cannot_resurface_via_reinsert(version_gap):
    """After the invalidation, a later fitting insert starts clean."""
    cache = LRUCache(100)
    cache.insert(9, 60, 0)
    cache.insert(9, 150, version_gap)  # oversize, invalidates v0
    assert cache.peek(9) is None
    evicted = cache.insert(9, 30, version_gap + 1)
    assert evicted == []
    assert 9 not in cache.oversize_rejections
    entry = cache.peek(9)
    assert (entry.size, entry.version) == (30, version_gap + 1)
