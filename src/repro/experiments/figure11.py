"""Figure 11: efficiency and bandwidth of the push algorithms (DEC trace).

(a) **Efficiency**: the fraction of all pushed bytes that are later
    accessed before being evicted or invalidated.
(b) **Bandwidth**: bytes/s of pushed data next to bytes/s of demand
    fetches, per algorithm.

Paper shape claims: update push is the most efficient (~1/3 of pushed
bytes used); the hierarchical algorithms run at 4-13% efficiency and can
inflate total bandwidth by up to ~4x over demand-only, trading bandwidth
for latency.
"""

from __future__ import annotations

from repro.experiments.base import ExperimentResult, resolve_config
from repro.experiments.figure10 import run_systems
from repro.sim.config import ExperimentConfig

#: Systems whose push behaviour the figure reports.
PUSH_SYSTEMS = (
    "hints+update-push",
    "hints+push-1",
    "hints+push-half",
    "hints+push-all",
)


def run(
    config: ExperimentConfig | None = None,
    profile_name: str = "dec",
    cost_name: str = "testbed",
) -> ExperimentResult:
    """Measure push efficiency and bandwidth for each algorithm."""
    config = resolve_config(config)
    systems = run_systems(config, profile_name, cost_name)
    demand_only_bw = systems["hints"][1].demand_bandwidth_bytes_per_s()
    rows = []
    for name in PUSH_SYSTEMS:
        _metrics, stats = systems[name]
        total_bw = stats.push_bandwidth_bytes_per_s() + stats.demand_bandwidth_bytes_per_s()
        rows.append(
            {
                "system": name,
                "efficiency": stats.efficiency,
                "pushed_mb": stats.pushed_bytes / (1024 * 1024),
                "used_mb": stats.used_bytes / (1024 * 1024),
                "push_bw_bytes_per_s": stats.push_bandwidth_bytes_per_s(),
                "demand_bw_bytes_per_s": stats.demand_bandwidth_bytes_per_s(),
                "bw_inflation_vs_demand_only": (
                    total_bw / demand_only_bw if demand_only_bw else 0.0
                ),
            }
        )
    return ExperimentResult(
        experiment="figure11",
        description=f"push efficiency and bandwidth ({profile_name}, {cost_name})",
        rows=rows,
        paper_claims={
            "update push efficiency": "~one third of pushed data is used",
            "hierarchical push efficiency": "4-13%",
            "bandwidth": "hierarchical push inflates bandwidth up to ~4x demand-only",
        },
        notes=[
            "Efficiency counts a pushed replica as used on its first demand "
            "hit; replicas evicted or invalidated unread count as waste.",
        ],
    )
