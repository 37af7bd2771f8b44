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
from repro.experiments.figure8 import COST_MODELS, classified
from repro.hierarchy.hint_hierarchy import HintHierarchy
from repro.netmodel import cost_model_by_name
from repro.push.base import PushStats
from repro.push.hierarchical import HierarchicalPushOnMiss
from repro.push.update_push import UpdatePush
from repro.runner.trace_cache import memoized
from repro.sim.config import ExperimentConfig
from repro.sim.engine import run_simulation_costs
from repro.sim.metrics import SimMetrics

PUSH_MODES = ("push-1", "push-half", "push-all")

#: Per cost model name, each system's metrics and push accounting.
Systems = dict[str, dict[str, tuple[SimMetrics, PushStats | None]]]


#: The no-push base cases: Figure 8's space-constrained cells of the same
#: names (its hierarchy and hints are built with these capacities).
BASE_CASES = ("hierarchy", "hints")


def _builders(config: ExperimentConfig) -> list:
    """Each push system as ``build(cost)``: a fresh architecture and policy."""

    def hints(policy):
        return lambda cost: HintHierarchy(
            config.topology, cost,
            l1_bytes=config.hint_data_cache_bytes,
            hint_capacity_bytes=config.hint_store_bytes,
            push_policy=policy(),
        )

    def ideal(cost):
        return HintHierarchy(
            config.topology, cost,
            l1_bytes=config.l1_cache_bytes,  # best case: replicas are free
            hint_capacity_bytes=None,
            charge_remote_as_l1=True,
        )

    def push(mode):
        return lambda: HierarchicalPushOnMiss(config.topology, mode, seed=config.seed)

    return [
        hints(UpdatePush),
        *(hints(push(mode)) for mode in PUSH_MODES),
        ideal,
    ]


def run_systems(config: ExperimentConfig, profile_name: str) -> Systems:
    """Run every Figure 10 system once, priced under each cost model.

    Returns ``{cost name: {system name: (metrics, push stats)}}``.  The
    push accounting (``None`` for the data hierarchy) belongs to the one
    classification, so every cost model shares it.  The base cases come
    from Figure 8's run-scoped cells (classified here if Figure 8 has not
    run).  No architecture outlives the call: their caches dwarf
    everything Figures 10 and 11 read from them.
    """
    systems: Systems = {name: {} for name in COST_MODELS}
    for key in BASE_CASES:
        metrics, push_stats = classified(config, profile_name, "constrained", key)
        for name, priced in zip(COST_MODELS, metrics):
            systems[name][key] = (priced, push_stats)
    trace = trace_for(config, profile_name)
    costs = [cost_model_by_name(name) for name in COST_MODELS]
    for build in _builders(config):
        architecture, metrics = run_simulation_costs(trace, build, costs)
        push_stats = getattr(architecture, "push_stats", None)
        for name, priced in zip(COST_MODELS, metrics):
            systems[name][architecture.name] = (priced, push_stats)
    return systems


def priced_systems(config: ExperimentConfig, profile_name: str) -> Systems:
    """:func:`run_systems` under every cost model, memoized for the run
    (Figure 11 reads Figure 10's systems instead of re-running them)."""
    return memoized(
        ("figure10", config, profile_name), lambda: run_systems(config, profile_name)
    )


def run(
    config: ExperimentConfig | None = None, profile_name: str = "dec"
) -> ExperimentResult:
    """Run the push-algorithm comparison for each cost model."""
    config = resolve_config(config)
    rows = []
    for cost_name, systems in priced_systems(config, profile_name).items():
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
