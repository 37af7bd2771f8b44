"""Digest pins of the live hint mechanism's complete state.

The message-level architecture's table (``tests/regression``) shows only
what the hint caches decided.  These pins cover everything the mechanism
holds after a run: every node's packed hint-cache bytes and counters, its
update counters and ``first_learned`` map (insertion order included, since
re-advertising walks it), and the cluster's batch and byte accounting.  A
change to how updates are packed, carried, applied or flushed -- or to the
flush-jitter stream -- that moves any hint, counter or timestamp shows
here, even when the experiment's rows happen to stay the same.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.common.ids import object_id_from_url
from repro.faults import FaultPlan, NodeCrash, NodeRecover
from repro.faults.cluster_driver import ClusterFaultDriver
from repro.hierarchy.message_hints import MessageLevelHintHierarchy
from repro.hints.cluster import HintCluster
from repro.netmodel.testbed import TestbedCostModel
from repro.sim.engine import run_simulation


def cluster_digest(cluster: HintCluster) -> str:
    """SHA-256 over every node's hint state and the cluster's counters."""
    digest = hashlib.sha256()
    for node in cluster.nodes:
        cache = node.cache
        digest.update(bytes(cache._buf))
        digest.update(
            repr(
                (
                    cache.lookups,
                    cache.insertions,
                    cache.conflict_evictions,
                    cache.invalidations,
                    node.updates_applied,
                    node.updates_originated,
                    list(node.first_learned.items()),
                )
            ).encode()
        )
    digest.update(
        repr(
            (cluster.batches_sent, cluster.bytes_sent, cluster.batches_lost_to_failures)
        ).encode()
    )
    return digest.hexdigest()


#: Per hint-cache size: the digest after the tiny-config DEC trace.
MESSAGE_LEVEL_DIGESTS = {
    1 << 20: "979ff6946248198ebc1ae7c8366a78d8b59528ab0c71418d767679b56dfd30f5",
    4096: "3b0c5191e8f9f0fdc0b673b2a29cf785dbad8c721f912969690b4e7095aa7d40",
}


@pytest.mark.parametrize("engine", ["reference", "fast"])
@pytest.mark.parametrize("hint_bytes", sorted(MESSAGE_LEVEL_DIGESTS))
def test_message_level_run_state(tiny_config, dec_trace, engine, hint_bytes):
    """Both engines drive the cluster to the same pinned state.

    The 4 KiB caches (64 sets) overflow on this trace, so set conflicts
    and displaced hints are part of what is pinned.
    """
    architecture = MessageLevelHintHierarchy(
        tiny_config.topology,
        TestbedCostModel(),
        hint_capacity_bytes=hint_bytes,
        seed=tiny_config.seed,
    )
    run_simulation(dec_trace, architecture, engine=engine)
    cluster = architecture.cluster
    if hint_bytes == 4096:
        assert sum(node.cache.conflict_evictions for node in cluster.nodes) > 0
    assert cluster_digest(cluster) == MESSAGE_LEVEL_DIGESTS[hint_bytes]


#: The balanced 73-node metadata tree: leaves 0-63, interior 64-71, root 72.
CRASHED_LEAF = 5
CRASHED_INTERIOR = 64  # fronts leaves 0-7
DRILL_DIGEST = "d7638742f7466785b92d5a496a1c8f41d80d6904ebeec05b0b9e6cb4688344c2"


def run_drill() -> HintCluster:
    """Crashes, recoveries and a reconfiguration under a random update mix.

    Small hint caches (32 sets of 4) and a band of hashes that all map to
    set 0 force conflicts; invalidations name holders that may not hold
    the object, so receivers see both matching and non-matching drops.
    """
    cluster = HintCluster.balanced(
        branching=8, leaves=64, hint_capacity_bytes=2048, link_latency_s=0.1, seed=11
    )
    n_sets = cluster.nodes[0].cache.n_sets
    hashes = [object_id_from_url(f"http://drill-{i}.example.com/") for i in range(200)]
    hashes += [n_sets * k for k in range(1, 41)]
    plan = FaultPlan(
        events=(
            NodeCrash(time=300.0, kind="meta", node=CRASHED_LEAF),
            NodeCrash(time=600.0, kind="meta", node=CRASHED_INTERIOR),
            NodeRecover(time=900.0, kind="meta", node=CRASHED_LEAF),
            NodeRecover(time=1800.0, kind="meta", node=CRASHED_INTERIOR),
        )
    )
    driver = ClusterFaultDriver(cluster, plan)
    parents = list(cluster.parents)
    rng = np.random.default_rng(2024)
    for step in range(1500):
        now = step * 1.6
        driver.run_until(now)
        if step == 750:
            # The survivors' new tree: the orphaned leaves move under 65.
            for leaf in range(8):
                parents[leaf] = 65
            cluster.reconfigure(parents, now=now)
        leaf = int(rng.integers(0, 64))
        url_hash = hashes[int(rng.integers(0, len(hashes)))]
        draw = rng.random()
        if draw < 0.6:
            cluster.local_inform(leaf, url_hash, now)
        elif draw < 0.85:
            cluster.local_invalidate(leaf, url_hash, now)
        else:
            cluster.find_nearest(leaf, url_hash, now)
    driver.run_until(3600.0)
    return cluster


def test_failure_drill_state():
    cluster = run_drill()
    assert cluster.batches_lost_to_failures > 0
    assert sum(node.cache.conflict_evictions for node in cluster.nodes) > 0
    assert sum(node.cache.invalidations for node in cluster.nodes) > 0
    assert cluster_digest(cluster) == DRILL_DIGEST
