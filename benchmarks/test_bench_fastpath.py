"""Bench: columnar fast engine vs the reference engine, with parity gate.

Two regimes are timed for each kernelized architecture (min-of-N,
interleaved so a cache-cold or preempted round cannot skew one side):

* **cold** -- a fresh architecture over the full trace.  Dominated by
  compulsory misses, i.e. by the *shared* mutable state both engines
  drive identically (LRU inserts, hint informs), so the speedup here is
  modest by construction.
* **warm** -- a second pass over the already-warmed architecture.  This
  is the steady state the paper measures (caches warm for two days of
  trace before measurement starts) and the regime the columnar engine
  exists for: large-scale Table-4-style runs where hits dominate and the
  reference engine's per-request object churn is pure overhead.

Every timed run is parity-gated: cold fast metrics must equal cold
reference metrics byte-for-byte, and likewise warm (both engines warm
the architecture identically, so the second-pass metrics must agree
too).  The speedup floor is asserted on the warm regime, and the whole
report, floors included, is printed (pytest shows it on failure, or
always with ``-s``).
"""

from __future__ import annotations

import json

from conftest import run_once

from repro.common.timing import Stopwatch
from repro.hierarchy.data_hierarchy import DataHierarchy
from repro.hierarchy.directory_arch import CentralizedDirectoryArchitecture
from repro.hierarchy.hint_hierarchy import HintHierarchy
from repro.hierarchy.icp import IcpHierarchy
from repro.netmodel.model import AccessPoint
from repro.netmodel.testbed import TestbedCostModel
from repro.push.hierarchical import HierarchicalPushOnMiss
from repro.sim.engine import run_simulation
from repro.traces.synthetic import SyntheticTraceGenerator

ROUNDS = 3
#: Acceptance floors: fast engine at least this many times the reference
#: throughput in the warm (steady-state) regime, per architecture.  The
#: PR-6 kernels keep their measured 10x floor; the newer kernels start at
#: 5x (ICP's sibling scan, the directory's per-miss map traffic, and push
#: policy dispatch all stay per-request Python) -- re-pin upward once
#: measured headroom is established.
SPEEDUP_FLOORS = {
    "hierarchy": 10.0,
    "hints": 10.0,
    "icp": 5.0,
    "directory": 5.0,
    "hints-push": 5.0,
}
#: Cold (first-pass) floors.  Cold runs are compulsory-miss dominated,
#: and every miss pays the same shared-state mutation in both engines;
#: hints-push misses additionally run the full push-policy dispatch
#: (``on_remote_fetch``/``on_server_fetch`` + ``_apply_pushes``) per
#: request in both engines, so its cold headroom is structurally small
#: (measured 1.6-2.5x, median 2.3x over eight runs on a shared 2-core box).
COLD_FLOORS = {"hints-push": 1.5}
COLD_FLOOR_DEFAULT = 2.0


def make_architectures(config):
    return {
        "hierarchy": lambda: DataHierarchy(config.topology, TestbedCostModel()),
        "hints": lambda: HintHierarchy(config.topology, TestbedCostModel()),
        "icp": lambda: IcpHierarchy(config.topology, TestbedCostModel()),
        "directory": lambda: CentralizedDirectoryArchitecture(
            config.topology, TestbedCostModel()
        ),
        "hints-push": lambda: HintHierarchy(
            config.topology,
            TestbedCostModel(),
            push_policy=HierarchicalPushOnMiss(config.topology, "push-1", seed=7),
        ),
    }


def bench_engines(config):
    profile = config.profile("dec")
    trace = SyntheticTraceGenerator(profile, seed=config.seed).generate()
    n = len(trace.requests)
    architectures = make_architectures(config)
    timings = {
        name: {"cold_ref": [], "cold_fast": [], "warm_ref": [], "warm_fast": []}
        for name in architectures
    }
    results = {}
    for _round in range(ROUNDS):
        for name, build in architectures.items():
            metrics = {}
            for engine, cold_key, warm_key in (
                ("reference", "cold_ref", "warm_ref"),
                ("fast", "cold_fast", "warm_fast"),
            ):
                architecture = build()
                with Stopwatch() as watch:
                    cold = run_simulation(trace, architecture, engine=engine)
                timings[name][cold_key].append(watch.elapsed)
                with Stopwatch() as watch:
                    warm = run_simulation(trace, architecture, engine=engine)
                timings[name][warm_key].append(watch.elapsed)
                metrics[engine] = (cold, warm)
            # Parity gate: byte-identical SimMetrics in both regimes.
            assert metrics["reference"][0] == metrics["fast"][0], name
            assert metrics["reference"][1] == metrics["fast"][1], name
            warm_metrics = metrics["fast"][1]
            results[name] = {
                "measured_requests": metrics["fast"][0].measured_requests,
                "warm_l1_fraction": round(
                    warm_metrics.requests_by_point[AccessPoint.L1]
                    / max(1, warm_metrics.measured_requests),
                    4,
                ),
            }
    report = {
        "requests": n,
        "rounds": ROUNDS,
        "scale": config.trace_scale,
        "speedup_floors": SPEEDUP_FLOORS,
        "cold_floors": {
            name: COLD_FLOORS.get(name, COLD_FLOOR_DEFAULT) for name in timings
        },
        "architectures": {},
    }
    for name, stage in timings.items():
        cold_ref = min(stage["cold_ref"])
        cold_fast = min(stage["cold_fast"])
        warm_ref = min(stage["warm_ref"])
        warm_fast = min(stage["warm_fast"])
        report["architectures"][name] = {
            **results[name],
            "reference_rps": round(n / cold_ref),
            "fast_rps": round(n / cold_fast),
            "speedup": round(cold_ref / cold_fast, 2),
            "warm_reference_rps": round(n / warm_ref),
            "warm_fast_rps": round(n / warm_fast),
            "warm_speedup": round(warm_ref / warm_fast, 2),
        }
    return report


def test_bench_fastpath(benchmark, bench_config):
    report = run_once(benchmark, bench_engines, bench_config)
    print("\n" + json.dumps(report, indent=2, sort_keys=True))
    for name, row in report["architectures"].items():
        # Cold runs are shared-state-bound; still require a real win.
        assert row["speedup"] >= COLD_FLOORS.get(name, COLD_FLOOR_DEFAULT), (name, row)
        # The acceptance floor holds in the steady-state regime.
        assert row["warm_speedup"] >= SPEEDUP_FLOORS[name], (name, row)
