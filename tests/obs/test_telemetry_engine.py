"""Telemetry attached to real simulations: reconciliation and safety.

The contract under test (DESIGN.md section 9): summing a run's
measured-window per-bin counter deltas reproduces the ``SimMetrics``
totals exactly, attaching telemetry never perturbs the simulation, and
the fault up/down gauges agree with the injected plan at every bin edge.
"""

from __future__ import annotations

import math

import pytest

from repro.faults import FaultPlan, HintBatchLoss, NodeCrash, NodeRecover
from repro.hierarchy.data_hierarchy import DataHierarchy
from repro.hierarchy.directory_arch import CentralizedDirectoryArchitecture
from repro.hierarchy.hint_hierarchy import HintHierarchy
from repro.hierarchy.icp import IcpHierarchy
from repro.netmodel.model import AccessPoint
from repro.netmodel.testbed import TestbedCostModel
from repro.obs.export import check_prometheus_text, prometheus_text, sum_counters
from repro.obs.telemetry import RunTelemetry, warmup_convergence
from repro.sim.engine import run_simulation

ARCHITECTURES = {
    "hierarchy": DataHierarchy,
    "icp": IcpHierarchy,
    "hints": HintHierarchy,
    "directory": CentralizedDirectoryArchitecture,
}

FAULT_PLANS = {
    "clean": None,
    "l2_outage": FaultPlan(
        events=(
            NodeCrash(time=0.0, kind="l2", node=0),
            NodeRecover(time=200_000.0, kind="l2", node=0),
        )
    ),
    "hint_loss": FaultPlan(events=(HintBatchLoss(time=0.0, prob=0.3),)),
}


def build(arch_name, tiny_config):
    return ARCHITECTURES[arch_name](tiny_config.topology, TestbedCostModel())


@pytest.mark.parametrize("fault_name", sorted(FAULT_PLANS))
@pytest.mark.parametrize("arch_name", sorted(ARCHITECTURES))
def test_measured_bins_reconcile_with_sim_metrics(
    arch_name, fault_name, tiny_config, dec_trace
):
    telemetry = RunTelemetry(bin_s=3600.0)
    metrics = run_simulation(
        dec_trace,
        build(arch_name, tiny_config),
        fault_plan=FAULT_PLANS[fault_name],
        telemetry=telemetry,
    )
    rows = telemetry.rows
    measured = {"window": "measured"}
    for point in AccessPoint:
        assert sum_counters(
            rows, "repro_requests_total", {**measured, "point": point.name}
        ) == metrics.requests_by_point[point]
        assert sum_counters(
            rows, "repro_bytes_total", {**measured, "point": point.name}
        ) == metrics.bytes_by_point[point]
    assert (
        sum_counters(rows, "repro_response_time_ms_count", measured)
        == metrics.measured_requests
    )
    assert math.isclose(
        sum_counters(rows, "repro_response_time_ms_sum", measured),
        metrics.total_ms,
        rel_tol=1e-9,
        abs_tol=1e-6,
    )
    flags = {
        "false_positive": metrics.false_positives,
        "false_negative": metrics.false_negatives,
        "suboptimal_positive": metrics.suboptimal_positives,
        "push_hit": metrics.push_hits,
    }
    for flag, expected in flags.items():
        assert sum_counters(
            rows, "repro_result_flags_total", {**measured, "flag": flag}
        ) == expected
    assert math.isclose(
        sum_counters(rows, "repro_fault_added_ms_total", measured),
        metrics.degraded.fault_added_ms,
        rel_tol=1e-9,
        abs_tol=1e-6,
    )
    # Warmup + measured requests cover every processed request.
    total_requests = sum_counters(rows, "repro_requests_total")
    assert total_requests == metrics.measured_requests + metrics.warmup_requests


@pytest.mark.parametrize("arch_name", sorted(ARCHITECTURES))
def test_telemetry_does_not_perturb_results(arch_name, tiny_config, dec_trace):
    bare = run_simulation(dec_trace, build(arch_name, tiny_config))
    telemetry = RunTelemetry()
    observed = run_simulation(
        dec_trace, build(arch_name, tiny_config), telemetry=telemetry
    )
    assert observed.summary() == bare.summary()
    assert observed.requests_by_point == bare.requests_by_point
    assert observed.bytes_by_point == bare.bytes_by_point
    assert telemetry.rows  # and the run actually produced bins


def test_run_telemetry_refuses_reuse(tiny_config, dec_trace):
    telemetry = RunTelemetry()
    run_simulation(dec_trace, build("hierarchy", tiny_config), telemetry=telemetry)
    with pytest.raises(RuntimeError):
        run_simulation(dec_trace, build("icp", tiny_config), telemetry=telemetry)


def test_fault_gauges_track_plan_at_bin_edges(tiny_config, dec_trace):
    crash_t, recover_t = 30_000.0, 100_000.0
    plan = FaultPlan(
        events=(
            NodeCrash(time=crash_t, kind="l2", node=0),
            NodeRecover(time=recover_t, kind="l2", node=0),
        )
    )
    telemetry = RunTelemetry(bin_s=3600.0)
    run_simulation(
        dec_trace, build("hierarchy", tiny_config), fault_plan=plan,
        telemetry=telemetry,
    )
    key = 'repro_node_up{arch="hierarchy",kind="l2",node="0"}'
    for row in telemetry.rows:
        expected = 0.0 if crash_t <= row["t_end"] < recover_t else 1.0
        assert row["gauges"][key] == expected, f"bin {row['bin']}"


def test_cache_occupancy_gauges_present_and_bounded(tiny_config, dec_trace):
    telemetry = RunTelemetry()
    architecture = build("hierarchy", tiny_config)
    run_simulation(dec_trace, architecture, telemetry=telemetry)
    last = telemetry.rows[-1]["gauges"]
    occupancy_keys = [
        key for key in last if key.startswith("repro_cache_occupancy_bytes")
    ]
    assert occupancy_keys
    l1_keys = [key for key in occupancy_keys if 'level="l1"' in key]
    assert len(l1_keys) == tiny_config.topology.n_l1
    # Default DataHierarchy caches are unbounded (Figure 8(a)); the gauge
    # must still be positive and match the cache's own accounting.
    by_node = {
        str(index): cache.used_bytes
        for index, cache in enumerate(architecture.l1_caches)
    }
    for key in l1_keys:
        node = key.split('node="')[1].split('"')[0]
        assert last[key] == by_node[node] > 0


def test_hint_instruments_present_for_hint_architecture(tiny_config, dec_trace):
    telemetry = RunTelemetry()
    run_simulation(dec_trace, build("hints", tiny_config), telemetry=telemetry)
    rows = telemetry.rows
    assert sum_counters(rows, "repro_hint_informs_total") > 0
    assert any(
        key.startswith("repro_hint_entries") for key in rows[-1]["gauges"]
    )


def test_prometheus_exposition_of_real_run_is_clean(tiny_config, dec_trace):
    telemetry = RunTelemetry()
    run_simulation(dec_trace, build("hints", tiny_config), telemetry=telemetry)
    assert check_prometheus_text(prometheus_text(telemetry.registry)) == []


def test_warmup_convergence_on_real_run(tiny_config, dec_trace):
    telemetry = RunTelemetry()
    run_simulation(dec_trace, build("hierarchy", tiny_config), telemetry=telemetry)
    report = warmup_convergence(telemetry.rows)
    assert report.arch == "hierarchy"
    assert 0 < report.final_rate < 1
    assert report.converged_at_s is None or report.converged_at_s <= dec_trace.duration
    assert report.summary_line()


def test_shared_registry_keeps_architectures_apart(tiny_config, dec_trace):
    from repro.obs.telemetry import MetricsRegistry

    registry = MetricsRegistry()
    rows = {}
    results = {}
    for arch_name in ("hierarchy", "icp"):
        telemetry = RunTelemetry(registry, bin_s=3600.0)
        results[arch_name] = run_simulation(
            dec_trace, build(arch_name, tiny_config), telemetry=telemetry
        )
        rows[arch_name] = telemetry.rows
    for arch_name, arch_rows in rows.items():
        assert all(row["arch"] == arch_name for row in arch_rows)
        assert sum_counters(
            arch_rows, "repro_requests_total", {"window": "measured", "arch": arch_name}
        ) == sum(results[arch_name].requests_by_point.values())
        # No cross-contamination: the other architecture's counters never
        # appear in this architecture's bins.
        other = "icp" if arch_name == "hierarchy" else "hierarchy"
        assert sum_counters(arch_rows, "repro_requests_total", {"arch": other}) == 0


class TestSettle:
    """The fast engine's bulk accounting keeps the per-request checks."""

    @staticmethod
    def settle(telemetry, **overrides):
        import numpy as np

        columns = dict(
            point=np.array([1, 4]),
            size=np.array([10, 20]),
            time_ms=np.array([2.0, 900.0]),
            measured=np.array([False, True]),
            remote_hit=np.array([False, False]),
            false_positive=np.array([False, True]),
            false_negative=np.array([False, False]),
            suboptimal_positive=np.array([False, False]),
            push_hit=np.array([False, False]),
            timeout_fallback=np.array([False, False]),
            stale_hint_forward=np.array([False, False]),
        )
        columns.update(overrides)
        telemetry.settle(**columns)

    def started(self, tiny_config):
        telemetry = RunTelemetry(bin_s=3600.0)
        telemetry.begin(build("hierarchy", tiny_config))
        telemetry.defer(2)
        return telemetry

    def test_settle_accounts_each_window(self, tiny_config):
        telemetry = self.started(tiny_config)
        self.settle(telemetry)
        totals = dict(telemetry.registry.counter_items(arch="hierarchy"))
        measured = 'arch="hierarchy",point="SERVER",window="measured"'
        assert totals[f"repro_requests_total{{{measured}}}"] == 1.0
        assert totals[f"repro_bytes_total{{{measured}}}"] == 20.0
        assert totals['repro_response_time_ms_sum{arch="hierarchy",window="warmup"}'] == 2.0
        assert (
            totals['repro_result_flags_total{arch="hierarchy",flag="false_positive",'
                   'window="measured"}']
            == 1.0
        )

    @pytest.mark.parametrize(
        "column, match",
        [("size", "counter increments"), ("time_ms", "histogram observations"),
         ("fault_ms", "counter increments")],
    )
    def test_rejects_negative_increments(self, tiny_config, column, match):
        import numpy as np

        telemetry = self.started(tiny_config)
        with pytest.raises(ValueError, match=match):
            self.settle(telemetry, **{column: np.array([1.0, -1.0])})

    def test_rejects_rows_never_deferred(self, tiny_config):
        telemetry = self.started(tiny_config)
        telemetry.defer(1)
        with pytest.raises(RuntimeError, match="deferred"):
            self.settle(telemetry)
        with pytest.raises(RuntimeError, match="never settled"):
            telemetry.finish(10.0)
