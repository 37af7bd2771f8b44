"""Parallel execution: deterministic, cache-sharing, invariant-preserving.

The headline property: ``run_experiments(..., jobs=4)`` produces
:class:`ExperimentResult`s equal to ``jobs=1``'s, notes included.  Work
units depend only on their arguments, never on scheduling, so parallelism
may only change wall-clock, and no result carries a host timing.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager

import pytest

from repro.experiments.registry import (
    MEMO_PRODUCERS,
    START_ORDER,
    all_experiments,
    get_experiment,
    work_units,
)
from repro.hierarchy.data_hierarchy import DataHierarchy
from repro.hierarchy.directory_arch import CentralizedDirectoryArchitecture
from repro.hierarchy.hint_hierarchy import HintHierarchy
from repro.netmodel.testbed import TestbedCostModel
from repro.runner.parallel import run_comparison_parallel, run_experiments
from repro.runner.specs import ArchitectureSpec
from repro.runner.trace_cache import TraceCache, cached_trace, set_trace_cache
from repro.sim.engine import run_comparison
from tests.conftest import LiveBuilds, make_tiny_config

#: A cheap cross-section of the registry: a characterization table, a
#: figure sweep, and an experiment that builds custom per-row profiles.
EXPERIMENTS = ["table4", "figure3", "scaling"]
#: The experiments that share run-scoped memo entries: one work unit.
MEMO_GROUP = ["figure8", "table6", "figure10", "figure11"]


@contextmanager
def fresh_cache():
    """A fresh active trace cache (empty memo), as a new CLI process has."""
    cache = TraceCache()
    previous = set_trace_cache(cache)
    try:
        yield cache
    finally:
        set_trace_cache(previous)


class TestRunExperiments:
    def test_jobs4_identical_to_jobs1(self, tmp_path):
        config = make_tiny_config()
        names = EXPERIMENTS + MEMO_GROUP
        sequential = run_experiments(names, config, jobs=1)
        parallel = run_experiments(
            names, config, jobs=4, trace_cache_dir=str(tmp_path / "store")
        )
        assert list(sequential.results) == list(parallel.results) == names
        for name in names:
            assert sequential.results[name] == parallel.results[name], name

    def test_no_memo_entry_is_computed_twice_at_any_job_count(self, tmp_path):
        """The memo's readers run in their producer's worker: the run
        computes each shared entry once, as the in-process run does."""
        config = make_tiny_config()
        names = ["table4", *MEMO_GROUP]
        store = str(tmp_path / "store")
        counts = {}
        for jobs in (1, 2, 3):
            with fresh_cache():
                summary = run_experiments(
                    names, config, jobs=jobs, trace_cache_dir=store
                )
            counts[jobs] = summary.cache_stats.memo_computations
            assert summary.jobs == min(jobs, 2)
        assert counts[1] > 0
        assert counts[2] == counts[3] == counts[1]

    def test_one_work_unit_runs_inline(self):
        summary = run_experiments(["figure8", "table6"], make_tiny_config(), jobs=4)
        assert summary.jobs == 1

    def test_timing_notes_and_summary(self):
        config = make_tiny_config()
        summary = run_experiments(["table4"], config, jobs=1)
        result = summary.results["table4"]
        # Host timings travel beside the result, never in its notes.
        assert not any(note.startswith("[stage timing]") for note in result.notes)
        assert summary.timings[0].experiment == "table4"
        assert summary.timings[0].total_s >= summary.timings[0].trace_gen_s
        rendered = summary.render()
        assert "trace generations this run:" in rendered

    def test_warm_disk_cache_performs_zero_generations(self, tmp_path):
        config = make_tiny_config()
        store = str(tmp_path / "store")
        cold = run_experiments(EXPERIMENTS, config, jobs=2, trace_cache_dir=store)
        assert cold.cache_stats.generations > 0
        warm = run_experiments(EXPERIMENTS, config, jobs=2, trace_cache_dir=store)
        assert warm.cache_stats.generations == 0
        assert warm.cache_stats.disk_hits > 0
        for name in EXPERIMENTS:
            assert cold.results[name] == warm.results[name], name

    def test_rejects_bad_jobs(self):
        with pytest.raises(ValueError, match="jobs"):
            run_experiments(["table4"], make_tiny_config(), jobs=0)

    def test_worker_failure_propagates(self):
        with pytest.raises(KeyError, match="unknown experiment"):
            run_experiments(["no_such_experiment"], make_tiny_config(), jobs=2)


class TestWorkUnits:
    def test_edges_and_start_order_name_registered_experiments(self):
        registered = all_experiments()
        for reader, producer in MEMO_PRODUCERS.items():
            assert registered.index(producer) < registered.index(reader)
        assert sorted(START_ORDER) == sorted(registered)

    @pytest.mark.parametrize("reader", sorted(MEMO_PRODUCERS))
    def test_reader_after_its_producer_computes_no_shared_entry(self, reader):
        """Run alone, a reader computes some of its producer's memo entries
        itself; run after the producer on one trace cache, it computes none
        of them.  An edge naming the wrong producer shares no entry."""
        config = make_tiny_config()
        with fresh_cache() as cache:
            get_experiment(MEMO_PRODUCERS[reader])(config)
            produced = set(cache.results)
            before = cache.stats.snapshot()
            get_experiment(reader)(config)
            after = cache.stats.since(before).memo_computations
        with fresh_cache() as alone:
            get_experiment(reader)(config)
        shared = produced & set(alone.results)
        assert shared
        assert after == alone.stats.memo_computations - len(shared)

    def test_readers_join_their_nearest_requested_producer(self):
        assert work_units(["table4", "figure11", "figure8"]) == [
            ["figure8", "figure11"],
            ["table4"],
        ]
        assert work_units(["table6"]) == [["table6"]]
        assert work_units(all_experiments())[0] == [START_ORDER[0]]


class TestRunComparisonParallel:
    def specs(self, config):
        topology = config.topology
        return [
            ArchitectureSpec(DataHierarchy, (topology, TestbedCostModel())),
            ArchitectureSpec(
                CentralizedDirectoryArchitecture, (topology, TestbedCostModel())
            ),
            ArchitectureSpec(HintHierarchy, (topology, TestbedCostModel())),
        ]

    def test_matches_sequential_run_comparison(self, tmp_path):
        config = make_tiny_config()
        profile = config.profile("dec")
        specs = self.specs(config)

        trace = cached_trace(profile, config.seed)
        sequential = run_comparison(trace, [spec.build() for spec in specs])
        parallel = run_comparison_parallel(
            profile,
            config.seed,
            specs,
            jobs=3,
            trace_cache_dir=str(tmp_path / "store"),
        )
        assert list(parallel) == list(sequential)
        for name in sequential:
            assert parallel[name].total_ms == sequential[name].total_ms
            assert (
                parallel[name].requests_by_point
                == sequential[name].requests_by_point
            )

    def test_jobs1_inline_path(self):
        config = make_tiny_config()
        results = run_comparison_parallel(
            config.profile("dec"), config.seed, self.specs(config), jobs=1
        )
        assert len(results) == 3

    def test_jobs1_keeps_one_architecture_alive(self):
        # Each spec is built, run and dropped before the next is built;
        # with the collector off, reference counting alone frees it.
        config = make_tiny_config()
        live = LiveBuilds()
        gc.disable()
        try:
            results = run_comparison_parallel(
                config.profile("dec"), config.seed, live.wrap(self.specs(config)), jobs=1
            )
        finally:
            gc.enable()
        assert len(results) == 3
        assert live.alive_at_build == [0, 0, 0]

    def test_specs_build_fresh_state_every_time(self):
        config = make_tiny_config()
        spec = self.specs(config)[0]
        first, second = spec.build(), spec.build()
        assert first is not second
        assert first.processed_requests == 0
        assert second.processed_requests == 0

    def test_spec_rejects_non_architecture_factory(self):
        spec = ArchitectureSpec(dict)
        with pytest.raises(TypeError, match="not an Architecture"):
            spec.build()


class _UnkernelizedHierarchy(DataHierarchy):
    """Subclass the fast engine has no kernel for (exact-type matching)."""

    name = "custom-hierarchy"


class TestFastEngine:
    def test_fast_matches_reference_results(self, tmp_path):
        config = make_tiny_config()
        specs = TestRunComparisonParallel().specs(config)
        results = {
            engine: run_comparison_parallel(
                config.profile("dec"),
                config.seed,
                specs,
                jobs=3,
                engine=engine,
                trace_cache_dir=str(tmp_path / "store"),
            )
            for engine in ("reference", "fast")
        }
        assert list(results["reference"]) == list(results["fast"])
        for name in results["reference"]:
            assert results["reference"][name] == results["fast"][name], name

    @pytest.mark.parametrize("jobs", [1, 4])
    def test_fast_rejects_unkernelized_spec_before_workers(self, jobs):
        """The same clean error as the serial path/CLI, raised up front --
        not an opaque traceback from inside a worker process."""
        config = make_tiny_config()
        specs = TestRunComparisonParallel().specs(config) + [
            ArchitectureSpec(
                _UnkernelizedHierarchy, (config.topology, TestbedCostModel())
            )
        ]
        with pytest.raises(ValueError, match="no vectorized kernel"):
            run_comparison_parallel(
                config.profile("dec"),
                config.seed,
                specs,
                jobs=jobs,
                engine="fast",
            )


class TestJourneyExport:
    def test_jobs4_journey_files_byte_identical_to_jobs1(self, tmp_path):
        """Journey export is jobs-invariant: each architecture's JSONL file
        is written whole by one process, and its contents are a pure
        function of (profile, seed, spec), never of scheduling."""
        config = make_tiny_config()
        specs = TestRunComparisonParallel().specs(config)
        dirs = {1: tmp_path / "j1", 4: tmp_path / "j4"}
        results = {
            jobs: run_comparison_parallel(
                config.profile("dec"),
                config.seed,
                specs,
                jobs=jobs,
                journey_dir=str(dirs[jobs]),
                trace_cache_dir=str(tmp_path / "store"),
            )
            for jobs in dirs
        }
        names = [spec.build().name for spec in specs]
        assert sorted(p.name for p in dirs[1].iterdir()) == sorted(
            f"{name}.jsonl" for name in names
        )
        for name in names:
            one = (dirs[1] / f"{name}.jsonl").read_bytes()
            four = (dirs[4] / f"{name}.jsonl").read_bytes()
            assert one == four, name
            lines = one.decode().splitlines()
            assert len(lines) == results[1][name].measured_requests
        for name in names:
            assert results[1][name].total_ms == results[4][name].total_ms


class TestWorkerTraceSharing:
    def test_workers_share_one_disk_store(self, tmp_path):
        """Many workers, one store: the trace is generated at most once
        per process and persisted once (content-addressed writes race
        benignly)."""
        config = make_tiny_config()
        store = tmp_path / "store"
        run_comparison_parallel(
            config.profile("dec"),
            config.seed,
            TestRunComparisonParallel().specs(config),
            jobs=3,
            trace_cache_dir=str(store),
        )
        files = list(store.glob("*.npz"))
        assert len(files) == 1
        reloaded = TraceCache(store)
        trace = reloaded.get(config.profile("dec"), config.seed)
        assert reloaded.stats.disk_hits == 1
        assert len(trace) > 0
