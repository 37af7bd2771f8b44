"""Load sensitivity: does hop reduction matter more when caches are busy?

The paper measured an idle testbed and hypothesized (section 2.1.1) that
"busy nodes would probably increase the importance of reducing the number
of hops in a cache system."  This experiment tests the hypothesis: sweep a
system load factor through a queueing-inflated cost model and compare the
traditional hierarchy (many hops through increasingly saturated high-level
caches) against the hint architecture (at most one cache-to-cache hop).

Expected shape: the hint speedup grows monotonically with load.
"""

from __future__ import annotations

from repro.experiments.base import ExperimentResult, resolve_config, trace_for
from repro.hierarchy.data_hierarchy import DataHierarchy
from repro.hierarchy.hint_hierarchy import HintHierarchy
from repro.netmodel.queueing import LoadAwareCostModel
from repro.netmodel.testbed import TestbedCostModel
from repro.sim.config import ExperimentConfig
from repro.sim.engine import run_simulation_costs

#: Root-cache utilizations swept (0 = the paper's idle testbed).
LOAD_FACTORS = (0.0, 0.3, 0.5, 0.7, 0.85, 0.95)


def run(
    config: ExperimentConfig | None = None, profile_name: str = "dec"
) -> ExperimentResult:
    """Sweep system load and report both architectures' response times."""
    config = resolve_config(config)
    trace = trace_for(config, profile_name)
    costs = [LoadAwareCostModel(TestbedCostModel(), load=load) for load in LOAD_FACTORS]
    # Load prices the paths; it never changes them: one classification per
    # architecture, priced at every load.
    _, base = run_simulation_costs(
        trace, lambda cost: DataHierarchy(config.topology, cost), costs
    )
    _, ours = run_simulation_costs(
        trace, lambda cost: HintHierarchy(config.topology, cost), costs
    )
    rows = [
        {
            "load": load,
            "hierarchy_ms": hierarchy.mean_response_ms,
            "hints_ms": hints.mean_response_ms,
            "speedup": hierarchy.mean_response_ms / hints.mean_response_ms,
        }
        for load, hierarchy, hints in zip(LOAD_FACTORS, base, ours)
    ]
    return ExperimentResult(
        experiment="load_sensitivity",
        description="hint speedup vs cache-system load (the 2.1.1 hypothesis)",
        rows=rows,
        chart_spec={"kind": "xy", "x": "load", "y": ["speedup"]},
        paper_claims={
            "hypothesis": "busy nodes increase the importance of reducing "
            "the number of hops (section 2.1.1, untested in the paper)",
        },
        notes=[
            "Cache service time is inflated by the M/M/1 sojourn factor per "
            "traversed level; higher levels carry higher utilization.",
        ],
    )
