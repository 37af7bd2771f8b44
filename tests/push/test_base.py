"""Tests for push accounting."""

from __future__ import annotations

import pytest

from repro.push.base import PushStats
from repro.push.nopush import NoPush


class TestPushStats:
    def test_efficiency(self):
        stats = PushStats(pushed_bytes=1000, used_bytes=300)
        assert stats.efficiency == pytest.approx(0.3)

    def test_efficiency_by_count(self):
        stats = PushStats(pushed_count=10, used_count=4)
        assert stats.efficiency_by_count == pytest.approx(0.4)

    def test_zero_pushes_zero_efficiency(self):
        assert PushStats().efficiency == 0.0
        assert PushStats().efficiency_by_count == 0.0

    def test_bandwidth_over_span(self):
        stats = PushStats(pushed_bytes=1000, demand_bytes=4000)
        stats.note_time(0.0)
        stats.note_time(100.0)
        assert stats.push_bandwidth_bytes_per_s() == pytest.approx(10.0)
        assert stats.demand_bandwidth_bytes_per_s() == pytest.approx(40.0)

    def test_bandwidth_without_span(self):
        assert PushStats(pushed_bytes=100).push_bandwidth_bytes_per_s() == 0.0


class TestNoPush:
    def test_pushes_nothing_on_any_event(self):
        policy = NoPush()
        assert policy.on_remote_fetch(0.0, 100, 0, 1, 3) == []
        assert policy.on_server_fetch(0.0, 100, 0, True, {1: 0}) == []
