"""Integration tests: push policies running inside the hint hierarchy."""

from __future__ import annotations

import pytest

from repro.hierarchy.hint_hierarchy import HintHierarchy
from repro.hierarchy.topology import HierarchyTopology
from repro.netmodel.model import AccessPoint
from repro.netmodel.testbed import TestbedCostModel
from repro.push.hierarchical import HierarchicalPushOnMiss
from repro.push.update_push import UpdatePush
from repro.runner.trace_cache import TraceCache
from repro.sim.engine import run_simulation
from repro.traces.records import Request
from tests.conftest import make_tiny_config

TOPOLOGY = HierarchyTopology(clients_per_l1=1, l1_per_l2=2, n_l2=2)


def make_request(client, obj=1, version=0, size=1000, time=0.0):
    return Request(
        time=time, client_id=client, object_id=obj, size=size, version=version
    )


class TestHierarchicalPushInSitu:
    def test_cross_group_fetch_seeds_other_caches(self):
        policy = HierarchicalPushOnMiss(TOPOLOGY, "push-all", seed=0)
        arch = HintHierarchy(TOPOLOGY, TestbedCostModel(), push_policy=policy)
        arch.process(make_request(client=0))
        arch.process(make_request(client=2))  # L3-distance fetch triggers push
        # Nodes 1 and 3 received pushed copies without ever asking.
        assert 1 in arch.l1_caches[1]
        assert 1 in arch.l1_caches[3]
        assert arch.push_stats.pushed_count == 2

    def test_pushed_copy_serves_next_request_locally(self):
        policy = HierarchicalPushOnMiss(TOPOLOGY, "push-all", seed=0)
        arch = HintHierarchy(TOPOLOGY, TestbedCostModel(), push_policy=policy)
        arch.process(make_request(client=0))
        arch.process(make_request(client=2))
        result = arch.process(make_request(client=3))
        assert result.point is AccessPoint.L1
        assert result.push_hit
        assert arch.push_stats.used_count == 1

    def test_push_does_not_overwrite_fresher_copy(self):
        policy = HierarchicalPushOnMiss(TOPOLOGY, "push-all", seed=0)
        arch = HintHierarchy(TOPOLOGY, TestbedCostModel(), push_policy=policy)
        arch.process(make_request(client=1, version=5))  # node 1: fresh copy
        arch.process(make_request(client=0, version=5))
        arch.process(make_request(client=2, version=5))  # triggers pushes
        assert arch.push_stats.skipped_count >= 1
        assert arch.l1_caches[1].peek(1).version == 5

    def test_name_includes_policy(self):
        policy = HierarchicalPushOnMiss(TOPOLOGY, "push-1", seed=0)
        arch = HintHierarchy(TOPOLOGY, TestbedCostModel(), push_policy=policy)
        assert arch.name == "hints+push-1"


class TestUpdatePushInSitu:
    def test_update_propagates_to_stale_holders(self):
        arch = HintHierarchy(
            TOPOLOGY, TestbedCostModel(), push_policy=UpdatePush()
        )
        arch.process(make_request(client=0, version=0, time=0.0))
        arch.process(make_request(client=2, version=0, time=1.0))
        # Client 1 sees the new version: a communication-miss server fetch.
        arch.process(make_request(client=1, version=1, time=2.0))
        # Nodes 0 and 2 held version 0; both get the fresh version pushed.
        assert arch.l1_caches[0].peek(1).version == 1
        assert arch.l1_caches[2].peek(1).version == 1

    def test_pushed_update_serves_future_hit(self):
        arch = HintHierarchy(
            TOPOLOGY, TestbedCostModel(), push_policy=UpdatePush()
        )
        arch.process(make_request(client=0, version=0, time=0.0))
        arch.process(make_request(client=1, version=1, time=1.0))
        result = arch.process(make_request(client=0, version=1, time=2.0))
        assert result.point is AccessPoint.L1
        assert result.push_hit

    def test_wasted_push_counted_on_eviction(self):
        arch = HintHierarchy(
            TOPOLOGY, TestbedCostModel(), l1_bytes=1500,
            push_policy=UpdatePush(),
        )
        arch.process(make_request(client=0, obj=1, version=0, time=0.0))
        arch.process(make_request(client=1, obj=1, version=1, time=1.0))
        assert arch.push_stats.pushed_count == 1
        # Node 0's pushed copy is evicted unread by local demand traffic.
        arch.process(make_request(client=0, obj=2, version=0, size=1400, time=2.0))
        assert arch.push_stats.wasted_count == 1


class TestUpdatePushAging:
    def test_aged_pushes_are_evicted_first(self):
        """With aging on, a pushed update sits at the eviction end."""
        arch = HintHierarchy(
            TOPOLOGY, TestbedCostModel(), l1_bytes=2500,
            push_policy=UpdatePush(age_pushed_entries=True),
        )
        # Node 0 holds obj 1 and obj 2.
        arch.process(make_request(client=0, obj=1, version=0, time=0.0))
        arch.process(make_request(client=0, obj=2, version=0, time=1.0))
        # Client 1 fetches obj 1 v1: update-push to node 0, aged on arrival.
        arch.process(make_request(client=1, obj=1, version=1, time=2.0))
        assert arch.l1_caches[0].peek(1).version == 1
        # A new demand insert must evict the AGED pushed entry, not obj 2.
        arch.process(make_request(client=0, obj=3, version=0, size=900, time=3.0))
        assert 1 not in arch.l1_caches[0]
        assert 2 in arch.l1_caches[0]

    def test_without_aging_pushed_entry_is_mru(self):
        arch = HintHierarchy(
            TOPOLOGY, TestbedCostModel(), l1_bytes=2500,
            push_policy=UpdatePush(age_pushed_entries=False),
        )
        arch.process(make_request(client=0, obj=1, version=0, time=0.0))
        arch.process(make_request(client=0, obj=2, version=0, time=1.0))
        arch.process(make_request(client=1, obj=1, version=1, time=2.0))
        arch.process(make_request(client=0, obj=3, version=0, size=900, time=3.0))
        # The freshly pushed obj 1 survives; the older obj 2 is evicted.
        assert 1 in arch.l1_caches[0]
        assert 2 not in arch.l1_caches[0]


class TestPushedReplicas:
    @pytest.mark.parametrize(
        "policy, fetched, targets",
        [
            # An L3-distance fetch from node 0: push-1 takes the one other
            # node of each L2 group.
            (
                HierarchicalPushOnMiss(TOPOLOGY, "push-1", seed=0),
                make_request(client=2, version=3, size=800, time=1.0),
                [1, 3],
            ),
            # A new version from the origin: node 0 still holds version 3.
            (
                UpdatePush(),
                make_request(client=2, version=4, size=900, time=1.0),
                [0],
            ),
        ],
        ids=["push-1", "update-push"],
    )
    def test_replicas_carry_the_fetched_size_and_version(
        self, policy, fetched, targets
    ):
        arch = HintHierarchy(TOPOLOGY, TestbedCostModel(), push_policy=policy)
        arch.process(make_request(client=0, version=3, size=700, time=0.0))
        arch.process(fetched)
        assert arch.push_stats.pushed_count == len(targets)
        assert [
            (entry.size, entry.version)
            for entry in (arch.l1_caches[node].peek(1) for node in targets)
        ] == [(fetched.size, fetched.version)] * len(targets)


class TestEfficiencyAccounting:
    def test_efficiency_reflects_use(self):
        policy = HierarchicalPushOnMiss(TOPOLOGY, "push-all", seed=0)
        arch = HintHierarchy(TOPOLOGY, TestbedCostModel(), push_policy=policy)
        arch.process(make_request(client=0))
        arch.process(make_request(client=2))  # pushes to nodes 1 and 3
        arch.process(make_request(client=3))  # uses one of them
        stats = arch.push_stats
        assert stats.pushed_count == 2
        assert stats.used_count == 1
        assert stats.efficiency == pytest.approx(0.5)


class TestStoreLoadedTrace:
    @pytest.mark.parametrize(
        "policy",
        [
            lambda topology: HierarchicalPushOnMiss(topology, "push-1", seed=0),
            lambda topology: UpdatePush(),
        ],
        ids=["push-1", "update-push"],
    )
    def test_fast_engine_builds_no_request_rows(self, policy, tmp_path):
        """A push policy gets the fetched size, so a trace loaded from the
        on-disk store stays columnar: no ``Request`` row is built."""
        config = make_tiny_config()
        profile = config.profile("dec")
        in_memory = TraceCache(tmp_path).get(profile, config.seed)
        loaded = TraceCache(tmp_path).get(profile, config.seed)
        assert not loaded.requests.materialized

        def run(trace):
            arch = HintHierarchy(
                config.topology, TestbedCostModel(), push_policy=policy(config.topology)
            )
            return run_simulation(trace, arch, engine="fast"), arch.push_stats

        stored, stored_pushes = run(loaded)
        assert not loaded.requests.materialized
        expected, expected_pushes = run(in_memory)
        assert expected_pushes.pushed_count > 0
        assert stored == expected
        assert stored_pushes == expected_pushes
