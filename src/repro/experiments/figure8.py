"""Figure 8: simulated response times for the three architectures.

For each trace (DEC, Berkeley, Prodigy), each access-time parameterization
(Testbed, Rousskov Min, Rousskov Max), and each disk configuration
(infinite / space-constrained), run:

* ``hierarchy`` -- the traditional three-level data hierarchy;
* ``directory`` -- a CRISP-style centralized directory;
* ``hints`` -- the paper's hint architecture.

Space-constrained capacities follow the paper's split: every data-
hierarchy node gets the full data budget, while hint-architecture L1 nodes
give up 10% of it to the hint store (the paper: 5 GB vs 4.5 GB + 500 MB,
"notice that this arrangement gives more space to the standard
hierarchy").

Paper shape claims: hints beat the hierarchy for every trace and every
parameterization, by 1.28-2.79x (Table 6); the directory lands between.
"""

from __future__ import annotations

from repro.experiments.base import ExperimentResult, resolve_config, trace_for
from repro.hierarchy.data_hierarchy import DataHierarchy
from repro.hierarchy.directory_arch import CentralizedDirectoryArchitecture
from repro.hierarchy.hint_hierarchy import HintHierarchy
from repro.netmodel import cost_model_by_name
from repro.push.base import PushStats
from repro.runner.trace_cache import memoized
from repro.sim.config import ExperimentConfig
from repro.sim.engine import run_simulation_costs
from repro.sim.metrics import SimMetrics
from repro.traces.profiles import all_profiles

COST_MODELS = ("testbed", "min", "max")
DISK_CONFIGS = ("infinite", "constrained")


def builders_for(config: ExperimentConfig, disk: str) -> dict:
    """The three Figure 8 architectures of one disk configuration.

    Keyed as the rows name them; each value builds a fresh architecture
    priced by the cost model it is given.
    """
    if disk == "infinite":
        data_bytes = None
        hint_data_bytes = None
        hint_store = None
    elif disk == "constrained":
        data_bytes = config.l1_cache_bytes
        hint_data_bytes = config.hint_data_cache_bytes
        hint_store = config.hint_store_bytes
    else:
        raise ValueError(f"unknown disk config {disk!r}")
    return {
        "hierarchy": lambda cost: DataHierarchy(
            config.topology, cost,
            l1_bytes=data_bytes, l2_bytes=data_bytes, l3_bytes=data_bytes,
        ),
        "directory": lambda cost: CentralizedDirectoryArchitecture(
            config.topology, cost, l1_bytes=data_bytes
        ),
        "hints": lambda cost: HintHierarchy(
            config.topology, cost,
            l1_bytes=hint_data_bytes, hint_capacity_bytes=hint_store,
        ),
    }


def classified(
    config: ExperimentConfig, profile_name: str, disk: str, key: str
) -> tuple[list[SimMetrics], PushStats | None]:
    """One architecture of one Figure 8 cell, classified once.

    Returns one metrics per COST_MODELS and the architecture's push
    accounting (``None`` for one without).  Memoized for the run, so
    Table 6 reads the infinite-disk cells, and Figure 10 its DEC
    space-constrained hierarchy and hints, instead of re-running them.
    """

    def classify() -> tuple[list[SimMetrics], PushStats | None]:
        trace = trace_for(config, profile_name)
        costs = [cost_model_by_name(name) for name in COST_MODELS]
        architecture, metrics = run_simulation_costs(
            trace, builders_for(config, disk)[key], costs
        )
        return metrics, getattr(architecture, "push_stats", None)

    return memoized(("figure8", config, profile_name, disk, key), classify)


def cell(
    config: ExperimentConfig, profile_name: str, disk: str, key: str
) -> list[SimMetrics]:
    """One architecture of one Figure 8 cell, one metrics per COST_MODELS."""
    return classified(config, profile_name, disk, key)[0]


def run(config: ExperimentConfig | None = None) -> ExperimentResult:
    """Run the full 3 traces x 3 cost models x 2 disk configs grid."""
    config = resolve_config(config)
    rows = []
    for profile in all_profiles():
        for disk in DISK_CONFIGS:
            cells = {
                key: cell(config, profile.name, disk, key)
                for key in builders_for(config, disk)
            }
            for index, cost_name in enumerate(COST_MODELS):
                row: dict = {
                    "trace": profile.name,
                    "disk": disk,
                    "cost_model": cost_name,
                }
                for key, metrics in cells.items():
                    row[f"{key}_ms"] = metrics[index].mean_response_ms
                row["speedup_hints"] = row["hierarchy_ms"] / row["hints_ms"]
                rows.append(row)
    return ExperimentResult(
        experiment="figure8",
        description="mean response time: hierarchy vs directory vs hints",
        rows=rows,
        paper_claims={
            "ordering": "hints < directory < hierarchy for every configuration",
            "speedups (Table 6)": "1.28-2.79x hierarchy/hints",
            "constrained config": "standard hierarchy is given MORE total disk",
        },
        notes=[
            "Min/Max use Rousskov's size-independent medians; Testbed is the "
            "size-dependent calibrated model.",
        ],
    )
