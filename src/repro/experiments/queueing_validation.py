"""Queueing validation: emergent contention vs the analytic load model.

Two independent implementations of "busy caches slow things down" exist in
this library: the closed-form M/M/1 inflation of
:class:`~repro.netmodel.queueing.LoadAwareCostModel` and the FIFO-server
replay of :mod:`repro.sim.queueing_sim`.  This experiment drives both over
the same workload at matched utilizations and checks that they agree on
the *conclusion* (the hint architecture's advantage grows with load) --
the model-vs-mechanism discipline applied to the paper's section 2.1.1
hypothesis.
"""

from __future__ import annotations

from repro.experiments.base import ExperimentResult, resolve_config, trace_for
from repro.hierarchy.data_hierarchy import DataHierarchy
from repro.hierarchy.hint_hierarchy import HintHierarchy
from repro.netmodel.queueing import LoadAwareCostModel
from repro.netmodel.testbed import TestbedCostModel
from repro.sim.config import ExperimentConfig
from repro.sim.engine import run_simulation_costs
from repro.sim.queueing_sim import QueueingReplay, compression_for_target_load

#: Target utilizations of the busiest node.
TARGET_LOADS = (0.2, 0.5, 0.8)


def run(
    config: ExperimentConfig | None = None, profile_name: str = "dec"
) -> ExperimentResult:
    """Compare analytic vs emergent queueing at matched utilizations."""
    config = resolve_config(config)
    trace = trace_for(config, profile_name)
    idle_cost = TestbedCostModel()
    costs = [idle_cost] + [LoadAwareCostModel(idle_cost, load=t) for t in TARGET_LOADS]
    # One classification per architecture: its idle pricing feeds the
    # emergent replay, its load-aware pricings the analytic rows.
    priced = {}
    analytic = {}
    for name, make in (("hierarchy", DataHierarchy), ("hints", HintHierarchy)):
        priced[name] = []
        _, metrics = run_simulation_costs(
            trace,
            lambda cost: make(config.topology, cost),
            costs,
            priced_rows=priced[name],
        )
        analytic[name] = metrics[1:]
    # Emergent: replay both architectures through FIFO servers at a
    # compression that drives the hierarchy's busiest node to target.
    calibrations = compression_for_target_load(
        trace, config.topology, priced["hierarchy"], TARGET_LOADS
    )
    rows = []
    for target, calibration, hierarchy_a, hints_a in zip(
        TARGET_LOADS, calibrations, analytic["hierarchy"], analytic["hints"]
    ):
        hierarchy_q = QueueingReplay(
            config.topology, hierarchical=True, compression=calibration
        ).run(trace, priced["hierarchy"])
        hints_q = QueueingReplay(
            config.topology, hierarchical=False, compression=calibration
        ).run(trace, priced["hints"])
        rows.append(
            {
                "target_load": target,
                "achieved_root_util": hierarchy_q.utilization_by_level["l3"],
                "emergent_speedup": (
                    hierarchy_q.mean_response_ms / hints_q.mean_response_ms
                ),
                "analytic_speedup": (
                    hierarchy_a.mean_response_ms / hints_a.mean_response_ms
                ),
                "hierarchy_queue_wait_ms": hierarchy_q.mean_queue_wait_ms,
                "hints_queue_wait_ms": hints_q.mean_queue_wait_ms,
            }
        )
    return ExperimentResult(
        experiment="queueing_validation",
        description="emergent FIFO contention vs the analytic M/M/1 load model",
        rows=rows,
        paper_claims={
            "hypothesis (2.1.1)": "busy nodes increase the importance of "
            "reducing hops; both implementations must agree",
        },
        notes=[
            "Compression is calibrated so the hierarchy's busiest node hits "
            "the target utilization; the hint system, which spreads load "
            "across the leaves, runs cooler at the same offered traffic.",
            "Emergent speedups exceed the analytic ones: the replay sees "
            "diurnal bursts (transient queues far above the average "
            "utilization), which the steady-state M/M/1 factor averages "
            "away.  Both agree on the direction and monotonicity -- the "
            "claim under test.",
        ],
    )
