"""Profiling through the parallel comparison runner.

Pins the PR's jobs-invariance criterion for the profiler: the
*aggregated span structure* (names, categories, nesting -- not times or
pids) is identical whether the comparison ran in-process (``jobs=1``) or
fanned out (``jobs=4``), and profiled runs return the same metrics as
unprofiled ones.
"""

from __future__ import annotations

from tests.conftest import make_tiny_config

from repro.experiments.registry import all_experiments
from repro.hierarchy.data_hierarchy import DataHierarchy
from repro.hierarchy.hint_hierarchy import HintHierarchy
from repro.netmodel.testbed import TestbedCostModel
from repro.obs import profiling
from repro.obs.profiling import SpanProfiler, aggregate_spans, span_structure
from repro.runner.parallel import (
    ArchitectureSpec,
    run_comparison_parallel,
    run_experiments,
)
from repro.runner.trace_cache import TraceCache, get_trace_cache, set_trace_cache
from repro.sim.config import default_config


def specs(config):
    topology = config.topology
    return [
        ArchitectureSpec(DataHierarchy, (topology, TestbedCostModel())),
        ArchitectureSpec(HintHierarchy, (topology, TestbedCostModel())),
    ]


def profiled_run(config, store, jobs):
    """One profiled comparison against a pre-warmed trace store."""
    previous = get_trace_cache()
    set_trace_cache(TraceCache(store))
    profiler = SpanProfiler()
    try:
        with profiling.attached(profiler):
            results = run_comparison_parallel(
                config.profile("dec"),
                config.seed,
                specs(config),
                jobs=jobs,
                trace_cache_dir=store,
            )
    finally:
        set_trace_cache(previous)
        profiler.close()
    return results, profiler


def warm_store(config, store):
    """Generate the trace into the on-disk store once, unprofiled, so no
    process (coordinator or worker) pays a ``trace_gen`` span later --
    generation happening in 1 vs 4 processes would legitimately differ."""
    cache = TraceCache(store)
    cache.get(config.profile("dec"), config.seed)


def test_span_structure_identical_jobs1_vs_jobs4(tmp_path):
    config = make_tiny_config()
    store = str(tmp_path / "store")
    warm_store(config, store)
    results = {}
    structures = {}
    for jobs in (1, 4):
        results[jobs], profiler = profiled_run(config, store, jobs)
        structures[jobs] = span_structure(profiler.roots)
    assert structures[1] == structures[4]
    # And the metrics agree between the two layouts, profiled or not.
    for name in results[1]:
        assert results[1][name].summary() == results[4][name].summary()


def test_profiled_metrics_match_unprofiled(tmp_path):
    config = make_tiny_config()
    store = str(tmp_path / "store")
    warm_store(config, store)
    profiled, _profiler = profiled_run(config, store, 1)
    plain = run_comparison_parallel(
        config.profile("dec"),
        config.seed,
        specs(config),
        jobs=1,
        trace_cache_dir=store,
    )
    assert sorted(profiled) == sorted(plain)
    for name in plain:
        assert profiled[name].summary() == plain[name].summary()
        assert profiled[name].requests_by_point == plain[name].requests_by_point


def test_jobs4_spans_carry_worker_pids(tmp_path):
    config = make_tiny_config()
    store = str(tmp_path / "store")
    warm_store(config, store)
    _results, profiler = profiled_run(config, store, 4)
    (comparison,) = profiler.roots
    assert comparison.name == "comparison"
    tasks = [c for c in comparison.children if c.name == "task"]
    assert len(tasks) == len(specs(config))
    pids = {span.pid for task in tasks for span in task.walk()}
    assert None not in pids  # every adopted span is stamped
    assert all(pid != profiler.pid for pid in pids)
    # Worker spans cover the whole simulate tree.
    names = {span.name for task in tasks for span in task.walk()}
    assert {"task", "trace_fetch", "build", "simulate"} <= names


def test_aggregated_tables_structurally_identical(tmp_path):
    config = make_tiny_config()
    store = str(tmp_path / "store")
    warm_store(config, store)
    tables = {}
    for jobs in (1, 4):
        _results, profiler = profiled_run(config, store, jobs)
        tables[jobs] = [
            (row["span"], row["category"], row["count"])
            for row in sorted(
                aggregate_spans(profiler.roots), key=lambda r: r["span"]
            )
        ]
    assert tables[1] == tables[4]


def test_run_experiments_records_one_span_per_experiment():
    profiler = SpanProfiler()
    try:
        with profiling.attached(profiler):
            run_experiments(["table3"], default_config().with_scale(0.0002))
    finally:
        profiler.close()
    spans = [
        span
        for root in profiler.roots
        for span in root.walk()
        if span.name == "experiment"
    ]
    assert len(spans) == 1
    assert spans[0].attrs["experiment"] == "table3"


def test_paper_experiments_run_on_the_fast_engine():
    """Every simulation of the paper reproduction takes the columnar
    kernels: none falls back to the per-request reference loop."""
    profiler = SpanProfiler()
    # A fresh cache, as a CLI run starts with: its memo holds no cells
    # an earlier test's experiments classified.
    previous = set_trace_cache(TraceCache())
    try:
        with profiling.attached(profiler):
            run_experiments(all_experiments(), make_tiny_config())
    finally:
        profiler.close()
        set_trace_cache(previous)
    spans = [span for root in profiler.roots for span in root.walk()]
    names = [span.name for span in spans]
    # 102 pins the registry's classification count at this config, so a
    # module that stops simulating (or bypasses the engine) shows, and so
    # does one that classifies again per cost model: figure8, figure10,
    # load_sensitivity and queueing_validation price each classification
    # every way, and table6/figure11 read the cells of figure8/figure10.
    assert names.count("simulate") == 102
    assert "reference_loop" not in names
    # Pricings: one per former single-cost run (191), less table6's 18
    # and figure11's 7 reads, plus queueing_validation's 2 idle pricings
    # that feed its replay.
    costs = [len(span.attrs["costs"]) for span in spans if span.name == "simulate"]
    assert sum(costs) == 168
