"""Bench: sharded runner throughput, with a shard-count-invariance gate.

Times :func:`repro.runner.sharding.run_comparison_sharded` over the
standard four architectures at ``shards=4`` (inline ``jobs=1``, so the
numbers measure the sharded engine itself rather than process-pool
scheduling noise) and prints the report (pytest shows it on failure, or
always with ``-s``).  Every timed run is invariance-gated: the ``shards=4``
metrics must equal a ``shards=1`` run of the same matrix byte for byte
-- the sharded runner's entire contract, enforced where throughput is
recorded.
"""

from __future__ import annotations

import json

from conftest import run_once

from repro.hierarchy.data_hierarchy import DataHierarchy
from repro.hierarchy.directory_arch import CentralizedDirectoryArchitecture
from repro.hierarchy.hint_hierarchy import HintHierarchy
from repro.hierarchy.icp import IcpHierarchy
from repro.netmodel.testbed import TestbedCostModel
from repro.runner.sharding import run_comparison_sharded
from repro.runner.specs import ArchitectureSpec
from repro.traces.synthetic import SyntheticTraceGenerator

ROUNDS = 3
SHARDS = 4
#: Aggregate floor over the whole matrix (requests simulated per second
#: of comparison wall-clock, all four architectures).  The bench runs the
#: library default ``engine="auto"``, so every partition sub-run takes
#: the columnar kernels: 90-208k req/s per architecture at ``shards=4``
#: over seven runs on a shared 2-core box.  The floor sits far below
#: that, below even the per-request reference loop, so it trips only
#: when sharding itself breaks, not on kernel speed or host noise.
TOTAL_RPS_FLOOR = 10_000

ARCHITECTURES = {
    "hierarchy": DataHierarchy,
    "icp": IcpHierarchy,
    "hints": HintHierarchy,
    "directory": CentralizedDirectoryArchitecture,
}


def bench_sharding(config):
    profile = config.profile("dec")
    n = len(SyntheticTraceGenerator(profile, seed=config.seed).generate().requests)
    specs = {
        name: [ArchitectureSpec(cls, (config.topology, TestbedCostModel()))]
        for name, cls in ARCHITECTURES.items()
    }
    timings = {name: [] for name in ARCHITECTURES}
    sharded = {}
    for _round in range(ROUNDS):
        for name, spec in specs.items():
            comparison = run_comparison_sharded(
                profile, config.seed, spec, shards=SHARDS
            )
            timings[name].append(comparison.wall_s)
            sharded[name] = comparison.results[name]
    # Invariance gate: byte-identical SimMetrics against shards=1.
    for name, spec in specs.items():
        single = run_comparison_sharded(profile, config.seed, spec, shards=1)
        assert single.results[name] == sharded[name], name

    report = {
        "requests": n,
        "rounds": ROUNDS,
        "scale": config.trace_scale,
        "shards": SHARDS,
        "virtual_partitions": 16,
        "rps_floor": TOTAL_RPS_FLOOR,
        "architectures": {},
    }
    best = {name: min(walls) for name, walls in timings.items()}
    for name, wall in best.items():
        report["architectures"][name] = {
            "measured_requests": sharded[name].measured_requests,
            "wall_s": round(wall, 4),
            "rps": round(n / wall),
        }
    report["total_rps"] = round(len(ARCHITECTURES) * n / sum(best.values()))
    return report


def test_bench_sharding(benchmark, bench_config):
    report = run_once(benchmark, bench_sharding, bench_config)
    print("\n" + json.dumps(report, indent=2, sort_keys=True))
    assert report["total_rps"] >= TOTAL_RPS_FLOOR, report["total_rps"]
