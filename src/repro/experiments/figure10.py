"""Figure 10: simulated response time under push algorithms (DEC trace).

Six systems over the space-constrained configuration (the paper pushes
into finite caches so speculative replicas can displace useful data):

* ``hierarchy``       -- no-push data hierarchy (base case 1);
* ``hints``           -- no-push hint hierarchy (base case 2);
* ``hints+update-push``
* ``hints+push-1``    -- one copy per eligible subtree;
* ``hints+push-half`` -- half the nodes of each eligible subtree;
* ``hints+push-all``  -- every node of each eligible subtree;
* ``hints-ideal-push``-- the upper bound: all L2/L3 hits become L1 hits,
  replicas free of charge.

Paper shape claims: ideal push gains 1.21-1.62x over no-push hints;
hierarchical push gains 1.12-1.25x; update push gains essentially nothing
on response time (but is the most efficient pusher -- Figure 11).
"""

from __future__ import annotations

from repro.experiments.base import ExperimentResult, resolve_config, trace_for
from repro.hierarchy.data_hierarchy import DataHierarchy
from repro.hierarchy.hint_hierarchy import HintHierarchy
from repro.netmodel import cost_model_by_name
from repro.push.base import PushPolicy, PushStats
from repro.push.hierarchical import HierarchicalPushOnMiss
from repro.push.update_push import UpdatePush
from repro.sim.config import ExperimentConfig
from repro.sim.engine import run_simulation
from repro.sim.metrics import SimMetrics

COST_MODELS = ("testbed", "min", "max")
PUSH_MODES = ("push-1", "push-half", "push-all")


def _policies(config: ExperimentConfig) -> list[PushPolicy | None]:
    policies: list[PushPolicy | None] = [None, UpdatePush()]
    policies.extend(
        HierarchicalPushOnMiss(config.topology, mode, seed=config.seed)
        for mode in PUSH_MODES
    )
    return policies


def run_systems(
    config: ExperimentConfig, profile_name: str, cost_name: str
) -> dict[str, tuple[SimMetrics, PushStats | None]]:
    """Run every Figure 10 system for one cost model; keyed by system name.

    Each value pairs the system's metrics with its hint hierarchy's push
    accounting (``None`` for the data hierarchy).  No architecture
    outlives the call: their caches dwarf everything Figures 10 and 11
    read from them.
    """
    trace = trace_for(config, profile_name)
    cost = cost_model_by_name(cost_name)
    results: dict[str, tuple[SimMetrics, PushStats | None]] = {}

    hierarchy = DataHierarchy(
        config.topology, cost,
        l1_bytes=config.l1_cache_bytes,
        l2_bytes=config.l1_cache_bytes,
        l3_bytes=config.l1_cache_bytes,
    )
    results["hierarchy"] = (run_simulation(trace, hierarchy), None)

    for policy in _policies(config):
        arch = HintHierarchy(
            config.topology, cost,
            l1_bytes=config.hint_data_cache_bytes,
            hint_capacity_bytes=config.hint_store_bytes,
            push_policy=policy,
        )
        results[arch.name] = (run_simulation(trace, arch), arch.push_stats)

    ideal = HintHierarchy(
        config.topology, cost,
        l1_bytes=config.l1_cache_bytes,  # best case: replicas are free
        hint_capacity_bytes=None,
        charge_remote_as_l1=True,
    )
    results[ideal.name] = (run_simulation(trace, ideal), ideal.push_stats)
    return results


def run(
    config: ExperimentConfig | None = None, profile_name: str = "dec"
) -> ExperimentResult:
    """Run the push-algorithm comparison for each cost model."""
    config = resolve_config(config)
    rows = []
    for cost_name in COST_MODELS:
        systems = run_systems(config, profile_name, cost_name)
        hierarchy_ms = systems["hierarchy"][0].mean_response_ms
        hints_ms = systems["hints"][0].mean_response_ms
        for name, (metrics, _push_stats) in systems.items():
            rows.append(
                {
                    "cost_model": cost_name,
                    "system": name,
                    "mean_response_ms": metrics.mean_response_ms,
                    "hit_ratio": metrics.hit_ratio,
                    "push_hits": metrics.push_hits,
                    "speedup_vs_hierarchy": hierarchy_ms / metrics.mean_response_ms,
                    "speedup_vs_hints": hints_ms / metrics.mean_response_ms,
                }
            )
    return ExperimentResult(
        experiment="figure10",
        chart_spec={"kind": "bars", "label": "system", "value": "mean_response_ms", "unit": " ms"},
        description=f"response time under push algorithms ({profile_name}, space-constrained)",
        rows=rows,
        paper_claims={
            "ideal push": "1.21-1.62x over no-push hints (1.54-2.63x over hierarchy)",
            "hierarchical push": "1.12-1.25x over no-push hints",
            "update push": "no appreciable response-time gain over no-push hints",
        },
        notes=[
            "Space-constrained configuration; ideal push replicas are not "
            "charged disk space, per the paper's best-case definition.",
        ],
    )
