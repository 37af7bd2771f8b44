"""Bench: telemetry and audit cost -- disabled (the default) and enabled.

Three claims are checked, and the report is printed (pytest shows it
on failure, or always with ``-s``):

* **Disabled instrumentation is free.** With neither a registry nor
  audit hooks attached the engine pays one ``is not None`` check per
  site (telemetry *and* audit) and the caches bump plain int counters;
  an uninstrumented twin of the engine loop (no telemetry or audit
  branches at all) must run within a 2% budget of the real
  ``run_simulation`` called with ``telemetry=None, audit=None`` on the
  loop it twins, ``engine="reference"``.
* **Enabled telemetry is cheap and invisible.** Attaching a
  :class:`~repro.obs.telemetry.RunTelemetry` must not change a single
  metric, and its wall-clock overhead is printed (not bounded -- binning
  cost is workload-dependent).
* **Enabled audit is invisible too.** Attaching
  :class:`~repro.audit.hooks.AuditHooks` (strided scans) must not change
  a single metric either; its overhead is likewise printed, not
  bounded -- full-state scans are the price of re-proving invariants.

Timings are interleaved min-of-N so one cache-cold or preempted round
cannot skew either side.
"""

from __future__ import annotations

import json

from conftest import run_once

from repro.audit.hooks import AuditHooks
from repro.common.timing import Stopwatch
from repro.hierarchy.data_hierarchy import DataHierarchy
from repro.hierarchy.directory_arch import CentralizedDirectoryArchitecture
from repro.hierarchy.hint_hierarchy import HintHierarchy
from repro.hierarchy.icp import IcpHierarchy
from repro.netmodel.testbed import TestbedCostModel
from repro.obs.telemetry import RunTelemetry
from repro.sim.engine import run_simulation
from repro.sim.metrics import SimMetrics
from repro.traces.synthetic import SyntheticTraceGenerator

ROUNDS = 3


def make_architectures(config):
    return {
        "hierarchy": lambda: DataHierarchy(config.topology, TestbedCostModel()),
        "icp": lambda: IcpHierarchy(config.topology, TestbedCostModel()),
        "hints": lambda: HintHierarchy(config.topology, TestbedCostModel()),
        "directory": lambda: CentralizedDirectoryArchitecture(
            config.topology, TestbedCostModel()
        ),
    }


def run_uninstrumented(trace, architecture) -> SimMetrics:
    """The engine loop with the telemetry branches deleted.

    A faithful twin of :func:`repro.sim.engine.run_simulation` for the
    clean default path (no faults, no journeys, uncachable excluded) --
    the counterfactual that makes "disabled telemetry is free" a
    measurable claim instead of an assertion.
    """
    metrics = SimMetrics(
        architecture=architecture.name, cost_model=architecture.cost_model.name
    )
    boundary = trace.warmup
    processed = 0
    for request in trace.requests:
        if request.error:
            metrics.skipped_error += 1
            continue
        if not request.cacheable:
            metrics.skipped_uncachable += 1
            continue
        result = architecture.process(request)
        processed += 1
        if request.time < boundary:
            metrics.warmup_requests += 1
            continue
        metrics.record(result, request.size)
    architecture.processed_requests += processed
    metrics.validate()
    return metrics


def bench_stages(config):
    profile = config.profile("dec")
    trace = SyntheticTraceGenerator(profile, seed=config.seed).generate()
    architectures = make_architectures(config)
    timings = {
        name: {"uninstrumented": [], "off": [], "on": [], "audit": []}
        for name in architectures
    }
    results = {}
    for _round in range(ROUNDS):
        for name, build in architectures.items():
            with Stopwatch() as watch:
                baseline = run_uninstrumented(trace, build())
            timings[name]["uninstrumented"].append(watch.elapsed)
            with Stopwatch() as watch:
                off = run_simulation(trace, build(), engine="reference")
            timings[name]["off"].append(watch.elapsed)
            telemetry = RunTelemetry()
            with Stopwatch() as watch:
                on = run_simulation(
                    trace, build(), telemetry=telemetry, engine="reference"
                )
            timings[name]["on"].append(watch.elapsed)
            hooks = AuditHooks(check_every=512)
            with Stopwatch() as watch:
                audited = run_simulation(
                    trace, build(), audit=hooks, engine="reference"
                )
            timings[name]["audit"].append(watch.elapsed)
            assert off.summary() == baseline.summary(), name
            assert off.summary() == on.summary(), name
            assert off.requests_by_point == on.requests_by_point, name
            assert off.summary() == audited.summary(), name
            assert off.requests_by_point == audited.requests_by_point, name
            assert sum(hooks.counts.values()) > 0, name  # the audit ran
            results[name] = {
                "measured_requests": off.measured_requests,
                "timeline_bins": len(telemetry.rows),
            }
    report = {"scale": config.trace_scale, "rounds": ROUNDS, "architectures": {}}
    total_uninstrumented = total_off = total_on = total_audit = 0.0
    for name, stage in timings.items():
        uninstrumented = min(stage["uninstrumented"])
        off = min(stage["off"])
        on = min(stage["on"])
        audit = min(stage["audit"])
        total_uninstrumented += uninstrumented
        total_off += off
        total_on += on
        total_audit += audit
        report["architectures"][name] = {
            **results[name],
            "uninstrumented_s": round(uninstrumented, 6),
            "off_s": round(off, 6),
            "on_s": round(on, 6),
            "audit_s": round(audit, 6),
            "disabled_overhead_pct": round(100.0 * (off / uninstrumented - 1.0), 3),
            "enabled_overhead_pct": round(100.0 * (on / off - 1.0), 3),
            "audit_overhead_pct": round(100.0 * (audit / off - 1.0), 3),
        }
    report["uninstrumented_s"] = round(total_uninstrumented, 6)
    report["off_s"] = round(total_off, 6)
    report["on_s"] = round(total_on, 6)
    report["audit_s"] = round(total_audit, 6)
    report["disabled_overhead_pct"] = round(
        100.0 * (total_off / total_uninstrumented - 1.0), 3
    )
    report["enabled_overhead_pct"] = round(100.0 * (total_on / total_off - 1.0), 3)
    report["audit_overhead_pct"] = round(100.0 * (total_audit / total_off - 1.0), 3)
    return report


def test_bench_telemetry(benchmark, bench_config):
    report = run_once(benchmark, bench_stages, bench_config)
    print("\n" + json.dumps(report, indent=2, sort_keys=True))
    # The acceptance budget: instrumented-but-disabled within 2% of the
    # uninstrumented twin (aggregate over all four architectures, so
    # per-architecture timer noise averages out).  The twin has neither
    # telemetry nor audit branches, so this budget covers the detached
    # cost of both observers.
    assert report["disabled_overhead_pct"] <= 2.0, report["disabled_overhead_pct"]
