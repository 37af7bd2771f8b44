"""The span profiler: mechanics, aggregation, export, and engine hooks.

Pins the PR's tentpole contracts:

* span trees nest correctly and pickle across process boundaries;
* ``aggregate_spans`` self time sums back to the root durations exactly
  (the ``profile`` verb's reconciliation footer);
* :func:`~repro.obs.profiling.chrome_trace` emits valid Chrome-trace
  JSON (and :func:`~repro.obs.profiling.check_chrome_trace` rejects
  corrupt payloads);
* worker shards re-base onto the coordinator clock and render on their
  own pid track;
* attaching a profiler changes **no** simulation result, and the engine
  span tree has the documented shape
  (``simulate`` > ``reference_loop`` / fastpath ``batch`` spans).
"""

from __future__ import annotations

import pickle

import pytest

from tests.conftest import make_tiny_config
from tests.sim.test_fastpath_parity import make_plan

from repro.hierarchy.data_hierarchy import DataHierarchy
from repro.hierarchy.directory_arch import CentralizedDirectoryArchitecture
from repro.hierarchy.hint_hierarchy import HintHierarchy
from repro.hierarchy.icp import IcpHierarchy
from repro.netmodel.testbed import TestbedCostModel
from repro.obs import profiling
from repro.obs.profiling import (
    ProfileShard,
    Span,
    SpanProfiler,
    aggregate_spans,
    check_chrome_trace,
    chrome_trace,
    format_profile_table,
    span_structure,
)
from repro.sim.engine import run_simulation
from repro.traces.synthetic import SyntheticTraceGenerator


@pytest.fixture(autouse=True)
def _no_leaked_profiler():
    """Every test starts and ends with profiling off."""
    profiling.detach()
    yield
    profiling.detach()


def make_forest():
    """A deterministic little forest: run(load, work(step, step)), flush."""
    profiler = SpanProfiler()
    with profiler.span("run", category="test", label="outer"):
        with profiler.span("load", category="test"):
            pass
        with profiler.span("work", category="test"):
            for _ in range(2):
                with profiler.span("step", category="test"):
                    pass
    with profiler.span("flush", category="test"):
        pass
    return profiler


class TestSpanMechanics:
    def test_nesting_shape(self):
        profiler = make_forest()
        assert [root.name for root in profiler.roots] == ["run", "flush"]
        run = profiler.roots[0]
        assert [child.name for child in run.children] == ["load", "work"]
        assert [g.name for g in run.children[1].children] == ["step", "step"]

    def test_walk_is_depth_first(self):
        run = make_forest().roots[0]
        assert [span.name for span in run.walk()] == [
            "run", "load", "work", "step", "step",
        ]

    def test_self_time_is_duration_minus_children(self):
        span = Span("p", duration_s=1.0)
        span.children.append(Span("c", duration_s=0.3))
        span.children.append(Span("c", duration_s=0.2))
        assert span.self_s == pytest.approx(0.5)
        # Never negative, even when child clocks overshoot the parent's.
        span.children.append(Span("c", duration_s=2.0))
        assert span.self_s == 0.0

    def test_durations_are_positive_and_contain_children(self):
        run = make_forest().roots[0]
        assert run.duration_s > 0
        assert run.duration_s >= sum(c.duration_s for c in run.children)

    def test_attrs_flow_through_context(self):
        profiler = SpanProfiler()
        with profiler.span("s", category="test", rows=5) as span:
            span.attrs["hits"] = 3
        assert profiler.roots[0].attrs == {"rows": 5, "hits": 3}

    def test_current_tracks_innermost_open_span(self):
        profiler = SpanProfiler()
        assert profiler.current() is None
        with profiler.span("outer"):
            with profiler.span("inner"):
                assert profiler.current().name == "inner"
            assert profiler.current().name == "outer"
        assert profiler.current() is None

    def test_span_pickles_with_children_and_attrs(self):
        root = make_forest().roots[0]
        clone = pickle.loads(pickle.dumps(root))
        assert [s.name for s in clone.walk()] == [s.name for s in root.walk()]
        assert clone.attrs == root.attrs
        assert clone.duration_s == root.duration_s

    def test_shard_pickles(self):
        profiler = make_forest()
        shard = pickle.loads(pickle.dumps(profiler.shard()))
        assert shard.pid == profiler.pid
        assert [root.name for root in shard.spans] == ["run", "flush"]


class TestAttachment:
    def test_detached_by_default(self):
        assert profiling.active() is None

    def test_attach_detach_round_trip(self):
        profiler = SpanProfiler()
        assert profiling.attach(profiler) is None
        assert profiling.active() is profiler
        assert profiling.detach() is profiler
        assert profiling.active() is None

    def test_attached_context_restores_previous(self):
        outer, inner = SpanProfiler(), SpanProfiler()
        profiling.attach(outer)
        with profiling.attached(inner) as got:
            assert got is inner
            assert profiling.active() is inner
        assert profiling.active() is outer

    def test_forked_profiler_reads_as_none(self):
        # A profiler whose origin pid is not this process (fork
        # inheritance) must read as detached so workers build their own.
        profiler = SpanProfiler()
        profiler.pid = profiler.pid + 1
        profiling.attach(profiler)
        assert profiling.active() is None


class TestAggregation:
    def test_self_time_sums_to_root_durations_exactly(self):
        profiler = make_forest()
        rows = aggregate_spans(profiler.roots)
        accounted = sum(row["self_s"] for row in rows)
        total = sum(root.duration_s for root in profiler.roots)
        assert accounted == pytest.approx(total, rel=0, abs=1e-12)

    def test_counts_and_cumulative(self):
        rows = {row["span"]: row for row in aggregate_spans(make_forest().roots)}
        assert rows["step"]["count"] == 2
        assert rows["run"]["count"] == 1
        assert rows["work"]["cumulative_s"] >= sum(
            (rows["step"]["cumulative_s"],)
        )

    def test_rows_sorted_by_descending_self_time(self):
        rows = aggregate_spans(make_forest().roots)
        selfs = [row["self_s"] for row in rows]
        assert selfs == sorted(selfs, reverse=True)

    def test_format_table_reconciles_footer(self):
        profiler = make_forest()
        total = sum(root.duration_s for root in profiler.roots)
        text = format_profile_table(
            aggregate_spans(profiler.roots), total_s=total, title="t"
        )
        assert "span-accounted" in text
        assert "(100.0%)" in text  # exact accounting identity

    def test_structure_strips_times_and_pids(self):
        one, two = make_forest(), make_forest()
        for span in two.roots[0].walk():
            span.pid = 4242  # structurally irrelevant
        assert span_structure(one.roots) == span_structure(two.roots)

    def test_structure_ignores_sibling_order(self):
        a = Span("p", children=[Span("x"), Span("y")])
        b = Span("p", children=[Span("y"), Span("x")])
        assert span_structure([a]) == span_structure([b])

    def test_structure_detects_shape_changes(self):
        a = Span("p", children=[Span("x")])
        b = Span("p", children=[Span("x", children=[Span("z")])])
        assert span_structure([a]) != span_structure([b])


class TestChromeTrace:
    def test_valid_and_nested(self):
        payload = chrome_trace(make_forest())
        assert check_chrome_trace(payload) == []
        assert payload["displayTimeUnit"] == "ms"
        complete = [e for e in payload["traceEvents"] if e["ph"] == "X"]
        assert {e["name"] for e in complete} == {
            "run", "load", "work", "step", "flush",
        }
        for event in complete:
            assert event["ts"] >= 0 and event["dur"] >= 0

    def test_process_metadata_present(self):
        payload = chrome_trace(make_forest())
        meta = [e for e in payload["traceEvents"] if e["ph"] == "M"]
        assert {e["name"] for e in meta} == {"process_name", "process_sort_index"}

    def test_sim_track_rows_land_on_pid_zero(self):
        rows = [
            {"arch": "hierarchy", "bin": 0, "t_start": 0.0, "t_end": 3600.0},
            {"arch": "hierarchy", "bin": 1, "t_start": 3600.0, "t_end": 7200.0},
            {"arch": "hints", "bin": 0, "t_start": 0.0, "t_end": 3600.0},
        ]
        payload = chrome_trace(make_forest(), sim_rows=rows)
        assert check_chrome_trace(payload) == []
        sim = [
            e
            for e in payload["traceEvents"]
            if e["ph"] == "X" and e["pid"] == profiling.SIM_TRACK_PID
        ]
        assert len(sim) == 3
        assert {e["tid"] for e in sim} == {1, 2}  # one lane per arch

    def test_check_rejects_missing_fields(self):
        assert check_chrome_trace({}) == ["traceEvents missing or not a list"]
        assert "traceEvents is empty" in check_chrome_trace({"traceEvents": []})
        problems = check_chrome_trace(
            {"traceEvents": [{"ph": "X", "ts": 0, "dur": 1}]}
        )
        assert any("missing 'name'" in p for p in problems)
        assert any("missing 'pid'" in p for p in problems)

    def test_check_rejects_negative_times(self):
        bad = {"name": "s", "ph": "X", "pid": 1, "tid": 1, "ts": -5, "dur": 1}
        assert any("bad ts" in p for p in check_chrome_trace({"traceEvents": [bad]}))
        bad = {"name": "s", "ph": "X", "pid": 1, "tid": 1, "ts": 0, "dur": -1}
        assert any("bad dur" in p for p in check_chrome_trace({"traceEvents": [bad]}))

    def test_check_rejects_overlapping_spans(self):
        events = [
            {"name": "a", "ph": "X", "pid": 1, "tid": 1, "ts": 0, "dur": 100},
            {"name": "b", "ph": "X", "pid": 1, "tid": 1, "ts": 50, "dur": 100},
        ]
        assert any(
            "overlaps" in p for p in check_chrome_trace({"traceEvents": events})
        )
        # The same pair on different tracks is fine.
        events[1]["tid"] = 2
        assert check_chrome_trace({"traceEvents": events}) == []


class TestAdoption:
    def test_adopt_rebases_and_stamps_pid(self):
        coordinator = SpanProfiler()
        worker = make_forest()
        # Pretend the worker's perf_counter epoch started 100s later.
        shard = worker.shard()
        shard.pid = 31337
        shard.epoch_offset_s = worker.epoch_offset_s + 100.0
        starts = [span.start_s for root in shard.spans for span in root.walk()]
        with coordinator.span("comparison") as parent:
            coordinator.adopt(shard, parent=parent)
        adopted = coordinator.roots[0].children
        assert [root.name for root in adopted] == ["run", "flush"]
        got = [span.start_s for root in adopted for span in root.walk()]
        assert got == pytest.approx([s + 100.0 for s in starts])
        assert all(
            span.pid == 31337 for root in adopted for span in root.walk()
        )

    def test_adopt_under_innermost_open_span_by_default(self):
        coordinator = SpanProfiler()
        shard = ProfileShard(
            pid=9, epoch_offset_s=coordinator.epoch_offset_s, spans=[Span("w")]
        )
        with coordinator.span("outer"):
            coordinator.adopt(shard)
        assert [c.name for c in coordinator.roots[0].children] == ["w"]

    def test_adopt_without_parent_appends_roots(self):
        coordinator = SpanProfiler()
        shard = ProfileShard(
            pid=9, epoch_offset_s=coordinator.epoch_offset_s, spans=[Span("w")]
        )
        coordinator.adopt(shard)
        assert [root.name for root in coordinator.roots] == ["w"]

    def test_adopted_spans_render_on_worker_pid_track(self):
        coordinator = SpanProfiler()
        worker = make_forest()
        shard = worker.shard()
        shard.pid = 31337
        with coordinator.span("comparison") as parent:
            coordinator.adopt(shard, parent=parent)
        payload = chrome_trace(coordinator)
        assert check_chrome_trace(payload) == []
        pids = {e["pid"] for e in payload["traceEvents"] if e["ph"] == "X"}
        assert pids == {coordinator.pid, 31337}


class TestMemoryMode:
    def test_memory_attrs_present(self):
        profiler = SpanProfiler(memory=True)
        try:
            with profiler.span("alloc"):
                blob = [0] * 50_000
                del blob
        finally:
            profiler.close()
        attrs = profiler.roots[0].attrs
        assert set(attrs) >= {"mem_alloc_kb", "mem_peak_kb", "rss_peak_kb"}
        assert attrs["mem_peak_kb"] > 100.0  # the 50k-int list is ~390kB
        assert attrs["rss_peak_kb"] > 0

    def test_child_peak_folds_into_parent(self):
        profiler = SpanProfiler(memory=True)
        try:
            with profiler.span("parent"):
                with profiler.span("child"):
                    blob = [0] * 50_000
                    del blob
        finally:
            profiler.close()
        parent = profiler.roots[0]
        child = parent.children[0]
        assert parent.attrs["mem_peak_kb"] >= child.attrs["mem_peak_kb"]

    def test_default_mode_records_no_memory_attrs(self):
        profiler = make_forest()
        assert "mem_peak_kb" not in profiler.roots[0].attrs


class TestEngineIntegration:
    @pytest.fixture(scope="class")
    def trace(self):
        config = make_tiny_config()
        return config, SyntheticTraceGenerator(
            config.profile("dec"), seed=config.seed
        ).generate()

    def build(self, config):
        return DataHierarchy(config.topology, TestbedCostModel())

    def test_metrics_identical_attached_or_not(self, trace):
        config, tiny = trace
        detached = run_simulation(tiny, self.build(config))
        profiler = SpanProfiler()
        with profiling.attached(profiler):
            attached = run_simulation(tiny, self.build(config))
        assert detached.summary() == attached.summary()
        assert detached.requests_by_point == attached.requests_by_point
        assert detached.total_ms == attached.total_ms

    def test_reference_span_tree_shape(self, trace):
        config, tiny = trace
        profiler = SpanProfiler()
        with profiling.attached(profiler):
            run_simulation(tiny, self.build(config), engine="reference")
        (simulate,) = profiler.roots
        assert simulate.name == "simulate"
        assert simulate.category == "engine"
        assert simulate.attrs["arch"] == "hierarchy"
        assert simulate.attrs["measured_requests"] > 0
        assert [c.name for c in simulate.children] == ["reference_loop"]

    def test_fast_span_tree_has_kernel_batches(self, trace):
        """Every kernel's spans classify; each batch of rows is then
        priced and folded once, even when telemetry bins cut the spans."""
        from repro.obs.telemetry import RunTelemetry

        config, tiny = trace
        for make in (
            DataHierarchy,
            IcpHierarchy,
            CentralizedDirectoryArchitecture,
            HintHierarchy,
        ):
            profiler = SpanProfiler()
            with profiling.attached(profiler):
                fast = run_simulation(
                    tiny,
                    make(config.topology, TestbedCostModel()),
                    telemetry=RunTelemetry(),
                    engine="fast",
                )
            detached = run_simulation(
                tiny, make(config.topology, TestbedCostModel()), engine="fast"
            )
            assert fast.summary() == detached.summary()
            (simulate,) = profiler.roots
            batches = [c for c in simulate.children if c.name == "batch"]
            assert batches, "fast engine should record per-batch spans"
            for batch in batches:
                # Classification is per span and is the span's only phase.
                assert [c.name for c in batch.children] == ["classify"], make
                assert not batch.children[0].children
                assert batch.attrs["rows"] > 0
                assert (
                    batch.attrs["l1_hits"] + batch.attrs["l1_misses"]
                    == batch.attrs["rows"]
                )
            # Pricing and the fold are siblings of the spans, one pair per
            # batch of rows: every row priced once, fewer prices than spans.
            priced = [c.attrs["rows"] for c in simulate.children if c.name == "cost_reconstruct"]
            folded = [c.attrs["rows"] for c in simulate.children if c.name == "metrics_fold"]
            assert priced == folded, make
            assert sum(priced) == sum(batch.attrs["rows"] for batch in batches)
            assert len(priced) < len(batches), make

    def test_fast_engine_runs_fault_windows_on_the_kernels(self, trace):
        """Active fault windows run on the kernels, not a per-request
        replay: no ``residual_replay`` span, and the ``batch`` spans'
        rows add up to every processed request."""
        config, tiny = trace
        plan = make_plan("crash-heavy", config.seed)
        for make in (
            DataHierarchy,
            IcpHierarchy,
            CentralizedDirectoryArchitecture,
            HintHierarchy,
        ):
            profiler = SpanProfiler()
            with profiling.attached(profiler):
                metrics = run_simulation(
                    tiny,
                    make(config.topology, TestbedCostModel()),
                    fault_plan=plan,
                    engine="fast",
                )
            assert metrics.degraded.faulted_requests > 0, make
            (simulate,) = profiler.roots
            names = {span.name for span in simulate.walk()}
            assert "residual_replay" not in names, make
            rows = sum(
                child.attrs["rows"]
                for child in simulate.children
                if child.name == "batch"
            )
            assert rows == metrics.measured_requests + metrics.warmup_requests

    def test_chrome_trace_of_real_run_is_valid(self, trace):
        config, tiny = trace
        profiler = SpanProfiler()
        with profiling.attached(profiler):
            run_simulation(tiny, self.build(config))
        assert check_chrome_trace(chrome_trace(profiler)) == []
