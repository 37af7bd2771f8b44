"""Traces stay columnar: nothing on the ``--all`` path builds row tuples.

A generated trace is backed by its columns; one ``Request`` per row would
be built only if something iterated or indexed ``trace.requests``.  The
fast engine and the experiments below read columns, so after any of them
every trace the run memoized must still be unmaterialized.
"""

from __future__ import annotations

import pytest

from repro.experiments.registry import get_experiment
from repro.hierarchy.data_hierarchy import DataHierarchy
from repro.hierarchy.directory_arch import CentralizedDirectoryArchitecture
from repro.hierarchy.hint_hierarchy import HintHierarchy
from repro.hierarchy.icp import IcpHierarchy
from repro.netmodel.testbed import TestbedCostModel
from repro.runner.parallel import run_comparison_parallel
from repro.runner.specs import ArchitectureSpec
from repro.runner.trace_cache import TraceCache, set_trace_cache
from repro.sim.config import ExperimentConfig
from repro.traces.synthetic import SyntheticTraceGenerator

CONFIG = ExperimentConfig().with_scale(0.0002)


@pytest.fixture()
def fresh_cache():
    cache = TraceCache()
    previous = set_trace_cache(cache)
    try:
        yield cache
    finally:
        set_trace_cache(previous)


def assert_columnar(cache: TraceCache) -> None:
    traces = list(cache._memory.values())
    assert traces, "the run memoized no trace"
    for trace in traces:
        assert not trace.requests.materialized, trace.profile_name


def test_generated_trace_is_columnar():
    trace = SyntheticTraceGenerator(CONFIG.profile("dec"), seed=CONFIG.seed).generate()
    assert not trace.requests.materialized
    assert trace.columns() is trace.requests.columns


def test_comparison_reads_columns(fresh_cache):
    shared = (CONFIG.topology, TestbedCostModel())
    specs = [
        ArchitectureSpec(kind, shared)
        for kind in (
            DataHierarchy,
            IcpHierarchy,
            HintHierarchy,
            CentralizedDirectoryArchitecture,
        )
    ]
    run_comparison_parallel(
        CONFIG.profile("dec"), CONFIG.seed, specs, jobs=1, engine="auto"
    )
    assert_columnar(fresh_cache)


@pytest.mark.parametrize(
    "name", ["table4", "figure2", "figure5", "table5", "ablations"]
)
def test_experiment_reads_columns(fresh_cache, name):
    get_experiment(name)(CONFIG)
    assert_columnar(fresh_cache)
