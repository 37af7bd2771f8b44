"""Tests for the update-push policy."""

from __future__ import annotations

import pytest

from repro.push.update_push import UpdatePush


class TestTargeting:
    def test_pushes_to_stale_holders(self):
        policy = UpdatePush()
        targets = policy.on_server_fetch(
            now=0.0,
            size=100,
            requester_l1=0,
            communication_miss=True,
            stale_holders={3: 1, 5: 0},
        )
        assert sorted(targets) == [3, 5]

    def test_requester_excluded(self):
        policy = UpdatePush()
        targets = policy.on_server_fetch(
            now=0.0,
            size=100,
            requester_l1=3,
            communication_miss=True,
            stale_holders={3: 1, 5: 0},
        )
        assert targets == [5]

    def test_no_push_on_compulsory_miss(self):
        policy = UpdatePush()
        assert (
            policy.on_server_fetch(
                now=0.0,
                size=100,
                requester_l1=0,
                communication_miss=False,
                stale_holders={},
            )
            == []
        )

    def test_ignores_remote_fetches(self):
        policy = UpdatePush()
        assert policy.on_remote_fetch(0.0, 100, 0, 1, 3) == []


class TestRateLimit:
    def test_budget_discards_excess(self):
        policy = UpdatePush(max_bandwidth_bytes_per_s=100.0)
        # First event at t=0: elapsed is clamped to 1 s -> 100 B budget.
        targets = policy.on_server_fetch(
            now=0.0,
            size=80,
            requester_l1=0,
            communication_miss=True,
            stale_holders={1: 0, 2: 0, 3: 0},
        )
        assert len(targets) == 1
        assert policy.discarded_for_rate == 2

    def test_budget_recovers_over_time(self):
        policy = UpdatePush(max_bandwidth_bytes_per_s=100.0)
        policy.on_server_fetch(
            now=0.0, size=80,
            requester_l1=0, communication_miss=True, stale_holders={1: 0},
        )
        later = policy.on_server_fetch(
            now=100.0, size=80,
            requester_l1=0, communication_miss=True, stale_holders={2: 0},
        )
        assert len(later) == 1

    def test_rejects_non_positive_cap(self):
        with pytest.raises(ValueError):
            UpdatePush(max_bandwidth_bytes_per_s=0.0)
