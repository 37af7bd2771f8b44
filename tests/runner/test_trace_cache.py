"""Trace-cache correctness: cached traces are the traces.

The two properties the ISSUE's acceptance rests on:

* a cached/deserialized trace is **bit-identical** to a regenerated one
  (same requests, same metadata);
* metrics computed from one shared read-only trace equal metrics from
  per-run regeneration, for every architecture.
"""

from __future__ import annotations

import os

import pytest

from repro.hierarchy.data_hierarchy import DataHierarchy
from repro.hierarchy.directory_arch import CentralizedDirectoryArchitecture
from repro.hierarchy.hint_hierarchy import HintHierarchy
from repro.netmodel.testbed import TestbedCostModel
from repro.runner.fingerprint import trace_fingerprint
from repro.runner.trace_cache import (
    TraceCache,
    cached_trace,
    get_trace_cache,
    memoized,
    set_trace_cache,
)
from repro.sim.engine import run_simulation
from repro.traces.profiles import DEC
from repro.traces.synthetic import SyntheticTraceGenerator
from tests.conftest import make_tiny_config

PROFILE = DEC.scaled(0.0002, min_clients=16)
SEED = 7


def regenerate():
    return SyntheticTraceGenerator(PROFILE, seed=SEED).generate()


def assert_traces_identical(left, right):
    """Field-for-field, request-for-request equality."""
    assert left.profile_name == right.profile_name
    assert left.n_objects == right.n_objects
    assert left.n_clients == right.n_clients
    assert left.duration == right.duration
    assert left.warmup == right.warmup
    assert len(left.requests) == len(right.requests)
    # NamedTuple equality is exact (floats compared bit-for-bit).
    assert left.requests == right.requests
    assert left == right


class TestMemoryLayer:
    def test_memoized_trace_identical_to_regenerated(self):
        cache = TraceCache()
        assert_traces_identical(cache.get(PROFILE, SEED), regenerate())

    def test_second_get_returns_same_object(self):
        cache = TraceCache()
        first = cache.get(PROFILE, SEED)
        assert cache.get(PROFILE, SEED) is first
        assert cache.stats.generations == 1
        assert cache.stats.memory_hits == 1

    def test_distinct_seeds_distinct_entries(self):
        cache = TraceCache()
        cache.get(PROFILE, SEED)
        cache.get(PROFILE, SEED + 1)
        assert cache.stats.generations == 2
        assert len(cache) == 2

    def test_clear_memory_forces_regeneration(self):
        cache = TraceCache()
        cache.get(PROFILE, SEED)
        cache.clear_memory()
        cache.get(PROFILE, SEED)
        assert cache.stats.generations == 2


class TestDiskLayer:
    def test_deserialized_trace_identical_to_regenerated(self, tmp_path):
        warm = TraceCache(tmp_path)
        warm.get(PROFILE, SEED)
        assert warm.stats.disk_writes == 1

        cold = TraceCache(tmp_path)  # fresh memo, same store
        loaded = cold.get(PROFILE, SEED)
        assert cold.stats.disk_hits == 1
        assert cold.stats.generations == 0
        assert_traces_identical(loaded, regenerate())

    def test_store_is_content_addressed(self, tmp_path):
        cache = TraceCache(tmp_path)
        cache.get(PROFILE, SEED)
        expected = tmp_path / f"{trace_fingerprint(PROFILE, SEED)}.npz"
        assert expected.exists()
        assert [p.name for p in tmp_path.iterdir()] == [expected.name]

    def test_corrupt_entry_regenerated_not_fatal(self, tmp_path):
        path = tmp_path / f"{trace_fingerprint(PROFILE, SEED)}.npz"
        path.write_bytes(b"not an npz file")
        cache = TraceCache(tmp_path)
        trace = cache.get(PROFILE, SEED)
        assert cache.stats.generations == 1
        assert cache.stats.disk_hits == 0
        assert_traces_identical(trace, regenerate())

    def test_no_temp_files_left_behind(self, tmp_path):
        cache = TraceCache(tmp_path)
        cache.get(PROFILE, SEED)
        assert not [p for p in os.listdir(tmp_path) if p.endswith(".tmp.npz")]


class TestStats:
    def test_since_and_merge(self):
        cache = TraceCache()
        before = cache.stats.snapshot()
        cache.get(PROFILE, SEED)
        cache.get(PROFILE, SEED)
        delta = cache.stats.since(before)
        assert delta.generations == 1
        assert delta.memory_hits == 1
        assert delta.generation_seconds > 0
        total = cache.stats.snapshot()
        total.merge(delta)
        assert total.generations == cache.stats.generations + 1

    def test_describe_mentions_counters(self):
        cache = TraceCache()
        cache.get(PROFILE, SEED)
        text = cache.stats.describe()
        assert "1 generated" in text


class TestActiveCache:
    def test_cached_trace_uses_installed_cache(self, tmp_path):
        replacement = TraceCache(tmp_path)
        previous = set_trace_cache(replacement)
        try:
            trace = cached_trace(PROFILE, SEED)
            assert get_trace_cache() is replacement
            assert replacement.stats.generations == 1
            assert_traces_identical(trace, regenerate())
        finally:
            set_trace_cache(previous)

    def test_memo_lives_as_long_as_the_active_cache(self):
        """Results computed once per key; a fresh cache, as each run
        installs, starts empty, and ``clear_memory`` empties it."""
        calls = []

        def compute():
            calls.append(1)
            return len(calls)

        previous = set_trace_cache(TraceCache())
        try:
            assert memoized(("k", 1), compute) == 1
            assert memoized(("k", 1), compute) == 1
            assert memoized(("k", 2), compute) == 2
            set_trace_cache(TraceCache())
            assert memoized(("k", 1), compute) == 3
            get_trace_cache().clear_memory()
            assert memoized(("k", 1), compute) == 4
        finally:
            set_trace_cache(previous)


class TestSharedTraceMetricsEquality:
    """One shared read-only trace == per-run regeneration, per architecture."""

    @pytest.mark.parametrize(
        "factory",
        [DataHierarchy, CentralizedDirectoryArchitecture, HintHierarchy],
        ids=["hierarchy", "directory", "hints"],
    )
    def test_shared_equals_regenerated(self, factory):
        config = make_tiny_config()
        profile = config.profile("dec")
        shared = TraceCache().get(profile, config.seed)

        def metrics_on(trace):
            return run_simulation(
                trace, factory(config.topology, TestbedCostModel())
            )

        first = metrics_on(shared)
        second = metrics_on(shared)  # the same shared object, reused
        regenerated = metrics_on(
            SyntheticTraceGenerator(profile, seed=config.seed).generate()
        )
        for metrics in (second, regenerated):
            assert metrics.measured_requests == first.measured_requests
            assert metrics.total_ms == first.total_ms
            assert metrics.requests_by_point == first.requests_by_point
            assert metrics.mean_response_ms == first.mean_response_ms


class TestStoreCrashRecovery:
    """Regression: a failed store must not leak ``.tmp.npz`` orphans."""

    @staticmethod
    def _temp_files(directory):
        return [
            name
            for name in os.listdir(directory)
            if name.endswith(".tmp.npz")
        ]

    def test_failed_store_leaves_no_temp_files(self, tmp_path, monkeypatch):
        import repro.runner.trace_cache as module

        def exploding_write(trace, path):
            with open(path, "wb") as stream:
                stream.write(b"partial")
            raise OSError("disk full")

        monkeypatch.setattr(module, "write_trace", exploding_write)
        cache = TraceCache(tmp_path)
        trace = cache.get(PROFILE, SEED)  # store fails, get succeeds
        assert trace.profile_name == PROFILE.name
        assert self._temp_files(tmp_path) == []
        assert cache.stats.disk_writes == 0
        assert cache.stats.generations == 1

        # A later get on a fresh cache regenerates cleanly (nothing on
        # disk) once writing works again.
        monkeypatch.undo()
        later = TraceCache(tmp_path)
        assert_traces_identical(later.get(PROFILE, SEED), trace)
        assert later.stats.generations == 1
        assert later.stats.disk_writes == 1
        assert self._temp_files(tmp_path) == []

    def test_construction_sweeps_dead_writer_orphans(self, tmp_path):
        fingerprint = trace_fingerprint(PROFILE, SEED)
        # A pid that cannot be alive: our own pid is live, so use a huge
        # one past any default pid_max.
        orphan = os.path.join(tmp_path, f".{fingerprint}.99999999.tmp.npz")
        with open(orphan, "wb") as stream:
            stream.write(b"leftover from a killed worker")
        TraceCache(tmp_path)
        assert not os.path.exists(orphan)

    def test_sweep_spares_live_writer_temp_files(self, tmp_path):
        fingerprint = trace_fingerprint(PROFILE, SEED)
        live = os.path.join(tmp_path, f".{fingerprint}.{os.getpid()}.tmp.npz")
        with open(live, "wb") as stream:
            stream.write(b"mid-write by a live process")
        TraceCache(tmp_path)
        assert os.path.exists(live)
        os.unlink(live)

    def test_sweep_ignores_regular_entries(self, tmp_path):
        cache = TraceCache(tmp_path)
        cache.get(PROFILE, SEED)
        fingerprint = trace_fingerprint(PROFILE, SEED)
        again = TraceCache(tmp_path)
        assert os.path.exists(os.path.join(tmp_path, f"{fingerprint}.npz"))
        assert again.get(PROFILE, SEED).profile_name == PROFILE.name
        assert again.stats.disk_hits == 1
