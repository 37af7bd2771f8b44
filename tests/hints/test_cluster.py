"""Tests for the message-level hint cluster."""

from __future__ import annotations

import numpy as np
import pytest

from repro.common.errors import TopologyError
from repro.hints.cluster import JITTER_BLOCK, HintCluster
from repro.hints.wire import UPDATE_RECORD_BYTES


def make_cluster(**kwargs):
    # 7-node binary-ish tree: root 0, children 1/2, leaves 3..6.
    defaults = dict(
        parents=[None, 0, 0, 1, 1, 2, 2],
        link_latency_s=0.5,
        max_period_s=10.0,
        seed=1,
    )
    defaults.update(kwargs)
    return HintCluster(**defaults)


class TestPropagation:
    def test_update_reaches_every_node(self):
        cluster = make_cluster()
        cluster.local_inform(3, url_hash=42, now=0.0)
        cluster.run_until(500.0)
        assert cluster.coverage(42) == 1.0

    def test_every_node_resolves_the_holder(self):
        cluster = make_cluster()
        cluster.local_inform(3, 42, now=0.0)
        cluster.run_until(500.0)
        for node in range(7):
            found = cluster.find_nearest(node, 42, now=500.0)
            assert found is not None
            assert found.node == 3

    def test_visibility_delay_bounded_by_hops_and_period(self):
        cluster = make_cluster()
        cluster.local_inform(3, 42, now=0.0)
        cluster.run_until(500.0)
        delays = cluster.visibility_delays(42, origin=3)
        assert len(delays) == 6
        # Farthest node is 3 hops away: <= 3 x (period + latency).
        assert max(delays) <= 3 * (10.0 + 0.5)
        assert min(delays) > 0.0

    def test_invalidation_propagates(self):
        cluster = make_cluster()
        cluster.local_inform(3, 42, now=0.0)
        cluster.run_until(200.0)
        cluster.local_invalidate(3, 42, now=200.0)
        cluster.run_until(400.0)
        for node in range(7):
            assert cluster.find_nearest(node, 42, now=400.0) is None

    def test_tree_delivery_is_exactly_once(self):
        cluster = make_cluster()
        cluster.local_inform(3, 42, now=0.0)
        cluster.run_until(500.0)
        # 6 other nodes, each applying the update exactly once.
        applied = sum(node.updates_applied for node in cluster.nodes)
        assert applied == 6

    def test_batching_amortizes_messages(self):
        cluster = make_cluster(seed=4)
        for url_hash in range(1, 21):
            cluster.local_inform(3, url_hash, now=0.0)
        cluster.run_until(500.0)
        # 20 updates crossed 6 tree edges (once each way of the spanning
        # paths), but batching keeps the message count far below 20 x 6.
        assert cluster.batches_sent < 60
        total_bytes = sum(cluster.bytes_sent)
        assert total_bytes == pytest.approx(20 * 6 * UPDATE_RECORD_BYTES)

    def test_quiet_cluster_sends_nothing(self):
        cluster = make_cluster()
        cluster.run_until(100.0)
        assert cluster.batches_sent == 0


class TestFlushJitter:
    def test_a_block_draw_is_the_scalar_draws(self):
        """What drawing flush periods in blocks rests on: one vector draw
        yields the scalar draws' doubles and leaves the same state."""
        block, scalar = np.random.default_rng(9), np.random.default_rng(9)
        drawn = block.uniform(0.0, 60.0, JITTER_BLOCK).tolist()
        assert drawn == [scalar.uniform(0.0, 60.0) for _ in range(JITTER_BLOCK)]
        assert block.bit_generator.state == scalar.bit_generator.state

    def test_flush_periods_follow_the_scalar_stream(self):
        """Across a block boundary, the n-th scheduled flush lands at
        ``now`` plus the n-th scalar ``uniform(0, max_period_s)``."""
        leaves = JITTER_BLOCK + 7
        cluster = HintCluster(
            parents=[None] + [0] * leaves, hint_capacity_bytes=64,
            max_period_s=7.5, seed=5,
        )
        for leaf in range(1, leaves + 1):
            cluster.local_inform(leaf, url_hash=leaf, now=2.0)
        flushes = sorted(cluster._events, key=lambda event: event[1])
        rng = np.random.default_rng(5)
        assert [event[0] for event in flushes] == [
            2.0 + rng.uniform(0.0, 7.5) for _ in range(leaves)
        ]


class TestConstruction:
    def test_balanced_helper(self):
        cluster = HintCluster.balanced(branching=8, leaves=64, seed=0)
        assert len(cluster.nodes) == 73  # 64 leaves + 8 interior + root

    def test_rejects_forest(self):
        with pytest.raises(TopologyError):
            HintCluster(parents=[None, None])

    def test_rejects_bad_parent(self):
        with pytest.raises(TopologyError):
            HintCluster(parents=[None, 9])

    def test_rejects_bad_latency(self):
        with pytest.raises(TopologyError):
            make_cluster(link_latency_s=-1.0)

    def test_visibility_requires_known_origin(self):
        cluster = make_cluster()
        with pytest.raises(KeyError):
            cluster.visibility_delays(42, origin=0)


class TestPaperClaim:
    def test_three_level_tree_propagates_within_minutes(self):
        """Section 3.1.1 + 3.2: 0-60 s batching per hop over a 3-level
        hierarchy keeps staleness inside Figure 6's safe zone."""
        cluster = HintCluster.balanced(
            branching=8, leaves=64, link_latency_s=0.1, seed=5
        )
        cluster.local_inform(0, url_hash=7, now=0.0)
        cluster.run_until(3600.0)
        delays = cluster.visibility_delays(7, origin=0)
        assert cluster.coverage(7) == 1.0
        # Leaf -> root -> leaf is 4 hops of up-to-60 s batching: "a few
        # minutes", the regime Figure 6 shows to be tolerable.
        assert max(delays) < 5 * 60.0
        assert float(np.mean(delays)) < 4 * 60.0
