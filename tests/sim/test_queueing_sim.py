"""Tests for the FIFO queueing-network replay."""

from __future__ import annotations

import pytest

from repro.common.errors import ConfigurationError
from repro.hierarchy.data_hierarchy import DataHierarchy
from repro.hierarchy.hint_hierarchy import HintHierarchy
from repro.hierarchy.topology import HierarchyTopology
from repro.netmodel.testbed import TestbedCostModel
from repro.sim.engine import run_simulation_costs
from repro.sim.queueing_sim import (
    FifoServer,
    QueueingReplay,
    compression_for_target_load,
)
from repro.traces.records import Request, Trace

TOPOLOGY = HierarchyTopology(clients_per_l1=1, l1_per_l2=2, n_l2=2)


def priced(trace, make=DataHierarchy):
    """The idle-testbed priced rows of one classification of ``trace``."""
    rows = []
    run_simulation_costs(
        trace, lambda cost: make(TOPOLOGY, cost), [TestbedCostModel()], priced_rows=rows
    )
    return rows


def make_trace(n_requests=60, gap_s=1.0):
    requests = [
        Request(
            time=i * gap_s,
            client_id=i % 4,
            object_id=i % 7,
            size=1000,
            version=0,
        )
        for i in range(n_requests)
    ]
    return Trace(
        profile_name="q", requests=requests, n_objects=7, n_clients=4,
        duration=n_requests * gap_s, warmup=0.0,
    )


class TestFifoServer:
    def test_idle_server_serves_immediately(self):
        server = FifoServer("s")
        assert server.serve(arrival_ms=10.0, service_ms=5.0) == 15.0
        assert server.total_wait_ms == 0.0

    def test_busy_server_queues(self):
        server = FifoServer("s")
        server.serve(0.0, 10.0)
        departure = server.serve(2.0, 10.0)
        assert departure == 20.0
        assert server.total_wait_ms == 8.0

    def test_utilization(self):
        server = FifoServer("s")
        server.serve(0.0, 25.0)
        assert server.utilization(horizon_ms=100.0) == pytest.approx(0.25)

    def test_mean_wait(self):
        server = FifoServer("s")
        server.serve(0.0, 10.0)
        server.serve(0.0, 10.0)
        assert server.mean_wait_ms() == pytest.approx(5.0)


class TestQueueingReplay:
    def test_uncompressed_sparse_trace_has_no_queueing(self):
        # 1 request/s with ~hundreds of ms of service: almost no overlap.
        trace = make_trace(gap_s=10.0)
        replay = QueueingReplay(TOPOLOGY, hierarchical=True, compression=1.0)
        result = replay.run(trace, priced(trace))
        assert result.mean_queue_wait_ms < 1.0

    def test_compression_creates_queueing(self):
        trace = make_trace(gap_s=1.0)
        rows = priced(trace)
        light = QueueingReplay(TOPOLOGY, hierarchical=True, compression=1.0).run(
            trace, rows
        )
        heavy = QueueingReplay(TOPOLOGY, hierarchical=True, compression=20.0).run(
            trace, rows
        )
        assert heavy.mean_queue_wait_ms > light.mean_queue_wait_ms
        assert heavy.mean_response_ms > light.mean_response_ms

    def test_response_time_bounded_below_by_idle_cost(self):
        """Queueing can only add delay on top of the idle access cost."""
        from repro.sim.engine import run_simulation

        trace = make_trace(gap_s=1.0)
        idle = run_simulation(
            trace, DataHierarchy(TOPOLOGY, TestbedCostModel()), warmup_s=0.0
        )
        replay = QueueingReplay(TOPOLOGY, hierarchical=True, compression=10.0)
        queued = replay.run(trace, priced(trace))
        assert queued.mean_response_ms >= idle.mean_response_ms - 1e-6

    def test_utilizations_reported_per_level(self):
        trace = make_trace()
        replay = QueueingReplay(TOPOLOGY, hierarchical=True, compression=5.0)
        result = replay.run(trace, priced(trace))
        assert set(result.utilization_by_level) == {"l1_max", "l2_max", "l3"}
        for value in result.utilization_by_level.values():
            assert 0.0 <= value <= 1.0

    def test_hint_paths_touch_at_most_two_cache_servers(self):
        trace = make_trace()
        replay = QueueingReplay(TOPOLOGY, hierarchical=False, compression=1.0)
        result = replay.run(trace, priced(trace, HintHierarchy))
        # The L2/L3 servers never serve hint-architecture requests.
        assert all(s.served == 0 for s in replay.l2_servers)
        assert replay.l3_server.served == 0
        assert result.measured_requests > 0

    def test_rejects_decompression(self):
        with pytest.raises(ConfigurationError):
            QueueingReplay(TOPOLOGY, hierarchical=True, compression=0.5)

    @pytest.mark.parametrize("make", [DataHierarchy, HintHierarchy])
    def test_rows_are_the_reference_outcomes(self, make, dec_trace, tiny_config):
        """The replay's input, row for row, is what the reference
        architecture's ``process`` decides and charges: every cacheable
        request in issue order, warmup included."""
        rows = []
        run_simulation_costs(
            dec_trace,
            lambda cost: make(tiny_config.topology, cost),
            [TestbedCostModel()],
            priced_rows=rows,
        )
        architecture = make(tiny_config.topology, TestbedCostModel())
        expected = [
            (index, architecture.process(request))
            for index, request in enumerate(dec_trace.requests)
            if request.cacheable and not request.error
        ]
        replayed = [
            (index, point, time_ms)
            for idx, points, times in rows
            for index, point, time_ms in zip(idx.tolist(), points.tolist(), times.tolist())
        ]
        assert any(request.time < dec_trace.warmup for request in dec_trace.requests)
        assert replayed == [
            (index, int(outcome.point), outcome.time_ms) for index, outcome in expected
        ]


class TestCalibration:
    def test_calibrated_load_is_close_to_target(self):
        trace = make_trace(n_requests=200, gap_s=2.0)
        rows = priced(trace)
        target = 0.5
        (compression,) = compression_for_target_load(trace, TOPOLOGY, rows, [target])
        replay = QueueingReplay(TOPOLOGY, hierarchical=True, compression=compression)
        result = replay.run(trace, rows)
        busiest = max(result.utilization_by_level.values())
        assert busiest == pytest.approx(target, rel=0.25)

    def test_rejects_bad_target(self):
        trace = make_trace()
        with pytest.raises(ConfigurationError):
            compression_for_target_load(trace, TOPOLOGY, priced(trace), [0.5, 1.5])
