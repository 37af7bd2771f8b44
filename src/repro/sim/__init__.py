"""Trace-driven simulation engine and metrics.

* :func:`repro.sim.engine.run_simulation` -- drive one architecture over
  one trace, with warmup handling and the paper's request-filtering rules;
  :func:`repro.sim.engine.run_simulation_costs` prices that one run under
  several cost models.
* :class:`repro.sim.metrics.SimMetrics` -- response-time and hit-ratio
  aggregation per access point.
* :mod:`repro.sim.config` -- named experiment configurations (topology,
  capacities, cost model) shared by the figure/table reproductions.
"""

from repro.sim.config import ExperimentConfig, default_config
from repro.sim.engine import run_simulation, run_simulation_costs
from repro.sim.metrics import LatencyHistogram, SimMetrics
from repro.sim.queueing_sim import QueueingReplay, compression_for_target_load

__all__ = [
    "ExperimentConfig",
    "LatencyHistogram",
    "QueueingReplay",
    "SimMetrics",
    "compression_for_target_load",
    "default_config",
    "run_simulation",
    "run_simulation_costs",
]
