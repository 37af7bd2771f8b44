"""MetricsRegistry / Timeline unit invariants (no simulation engine)."""

from __future__ import annotations

import pytest

from repro.obs.telemetry import (
    ConvergenceReport,
    MetricsRegistry,
    Timeline,
    parse_metric_key,
    render_metric_key,
    warmup_convergence,
)


class TestMetricKeys:
    def test_labels_sorted_and_quoted(self):
        key = render_metric_key("repro_x_total", {"b": "2", "a": "1"})
        assert key == 'repro_x_total{a="1",b="2"}'

    def test_no_labels_is_bare_name(self):
        assert render_metric_key("repro_x_total", {}) == "repro_x_total"
        assert parse_metric_key("repro_x_total") == ("repro_x_total", {})

    def test_round_trip(self):
        labels = {"arch": "hints", "node": "3", "odd": 'a"b\\c\nd'}
        name, parsed = parse_metric_key(render_metric_key("repro_x_total", labels))
        assert name == "repro_x_total"
        assert parsed == labels


class TestRegistryInvariants:
    def test_get_or_create_returns_same_instrument(self):
        registry = MetricsRegistry()
        a = registry.counter("repro_x_total", {"arch": "h"})
        b = registry.counter("repro_x_total", {"arch": "h"})
        assert a is b
        a.inc(3)
        assert b.value == 3

    def test_kind_mismatch_rejected(self):
        registry = MetricsRegistry()
        registry.counter("repro_x_total", {"arch": "h"})
        with pytest.raises(TypeError):
            registry.gauge("repro_x_total", {"arch": "h"})

    def test_label_key_mismatch_rejected(self):
        registry = MetricsRegistry()
        registry.counter("repro_x_total", {"arch": "h"})
        with pytest.raises(ValueError):
            registry.counter("repro_x_total", {"arch": "h", "node": "1"})

    def test_invalid_names_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.counter("9starts_with_digit", {})
        with pytest.raises(ValueError):
            registry.counter("repro_x_total", {"bad-key": "v"})

    def test_counter_rejects_negative_inc(self):
        counter = MetricsRegistry().counter("repro_x_total", {})
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_fn_backed_counter_rejects_inc(self):
        registry = MetricsRegistry()
        counter = registry.counter("repro_x_total", {}, fn=lambda: 42)
        assert counter.value == 42
        with pytest.raises(RuntimeError):
            counter.inc()

    def test_fn_backed_gauge_rejects_set(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("repro_x", {}, fn=lambda: 7)
        assert gauge.value == 7
        with pytest.raises(RuntimeError):
            gauge.set(1)

    def test_fn_reregistration_rebinds(self):
        # Fresh architectures reuse instrument keys across runs; the
        # callback must follow the newest object.
        registry = MetricsRegistry()
        registry.counter("repro_x_total", {}, fn=lambda: 1)
        counter = registry.counter("repro_x_total", {}, fn=lambda: 2)
        assert counter.value == 2

    def test_histogram_counts_and_buckets(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("repro_t_ms", {}, buckets=(1.0, 10.0))
        for value in (0.5, 5.0, 50.0):
            histogram.observe(value)
        assert histogram.count == 3
        assert histogram.sum == pytest.approx(55.5)
        assert histogram.cumulative_buckets() == [
            (1.0, 1),
            (10.0, 2),
            (float("inf"), 3),
        ]
        with pytest.raises(ValueError):
            histogram.observe(-1)

    def test_arch_filtering(self):
        registry = MetricsRegistry()
        registry.counter("repro_x_total", {"arch": "a"}).inc(1)
        registry.counter("repro_x_total", {"arch": "b"}).inc(2)
        registry.counter("repro_global_total", {}).inc(5)
        keys = {key for key, _ in registry.counter_items(arch="a")}
        assert 'repro_x_total{arch="a"}' in keys
        assert 'repro_x_total{arch="b"}' not in keys
        # Unlabeled (arch-less) instruments pass every filter.
        assert "repro_global_total" in keys


class TestTimelineBins:
    def make(self, bin_s=10.0):
        registry = MetricsRegistry()
        counter = registry.counter("repro_x_total", {"arch": "t"})
        timeline = Timeline(registry, bin_s=bin_s, arch="t")
        return counter, timeline

    def test_request_exactly_on_edge_lands_in_later_bin(self):
        counter, timeline = self.make()
        counter.inc()  # t in [0, 10)
        timeline.advance(10.0)  # a request exactly at t=10 closes bin 0 first
        counter.inc()  # belongs to bin 1
        timeline.finish(20.0)
        deltas = [row["counters"].get('repro_x_total{arch="t"}', 0) for row in timeline.rows]
        assert deltas == [1, 1]
        assert [row["bin"] for row in timeline.rows] == [0, 1]
        assert timeline.rows[0]["t_end"] == 10.0
        assert timeline.rows[1]["t_end"] == 20.0

    def test_empty_bins_emitted(self):
        counter, timeline = self.make()
        counter.inc()
        timeline.advance(35.0)  # clock jumps over bins 1 and 2
        counter.inc()
        timeline.finish(40.0)
        assert [row["bin"] for row in timeline.rows] == [0, 1, 2, 3]
        deltas = [row["counters"].get('repro_x_total{arch="t"}', 0) for row in timeline.rows]
        assert deltas == [1, 0, 0, 1]

    def test_trace_shorter_than_one_bin(self):
        counter, timeline = self.make(bin_s=3600.0)
        counter.inc()
        timeline.finish(42.0)
        assert len(timeline.rows) == 1
        (row,) = timeline.rows
        assert (row["t_start"], row["t_end"]) == (0.0, 42.0)

    def test_finish_on_edge_keeps_last_bin_full(self):
        counter, timeline = self.make()
        timeline.advance(15.0)
        counter.inc()
        timeline.finish(20.0)  # duration exactly on an edge: no zero-width row
        assert [row["bin"] for row in timeline.rows] == [0, 1]
        assert timeline.rows[-1]["t_end"] == 20.0

    def test_finish_idempotent(self):
        _counter, timeline = self.make()
        timeline.finish(25.0)
        rows_after_first = list(timeline.rows)
        timeline.finish(25.0)
        assert timeline.rows == rows_after_first

    def test_zero_deltas_dropped_from_rows(self):
        counter, timeline = self.make()
        counter.inc()
        timeline.advance(25.0)
        assert timeline.rows[0]["counters"]  # bin 0 has the delta
        assert timeline.rows[1]["counters"] == {}  # bin 1 is empty, not zero-filled

    def test_deltas_telescope_to_total(self):
        counter, timeline = self.make()
        for step in range(7):
            timeline.advance(step * 4.0)
            counter.inc(step)
        timeline.finish(24.0)
        total = sum(
            row["counters"].get('repro_x_total{arch="t"}', 0) for row in timeline.rows
        )
        assert total == counter.value == sum(range(7))

    def test_close_hook_called_with_bin_edge_before_snapshot(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("repro_g", {"arch": "t"})
        timeline = Timeline(registry, bin_s=10.0, arch="t")
        seen = []

        def hook(t_end):
            seen.append(t_end)
            gauge.set(t_end)  # snapshot must observe the hook's effect

        timeline.add_close_hook(hook)
        timeline.advance(25.0)
        timeline.finish(25.0)
        assert seen == [10.0, 20.0, 25.0]
        assert [row["gauges"]['repro_g{arch="t"}'] for row in timeline.rows] == seen

    def test_rejects_nonpositive_bin(self):
        with pytest.raises(ValueError):
            Timeline(MetricsRegistry(), bin_s=0)


def _row(bin_index, t_end, counters):
    return {
        "arch": "t",
        "bin": bin_index,
        "t_start": bin_index * 10.0,
        "t_end": t_end,
        "counters": counters,
        "gauges": {},
    }


def _requests(window, point, count):
    key = (
        f'repro_requests_total{{arch="t",point="{point}",window="{window}"}}'
    )
    return {key: count}


class TestWarmupConvergence:
    def test_converges_when_rate_stabilizes(self):
        rows = []
        # Ramp: 0/10 L1 hits, then steady 8/10 per bin.
        rows.append(_row(0, 10.0, {**_requests("warmup", "SERVER", 10)}))
        for index in range(1, 6):
            counters = {}
            counters.update(_requests("warmup" if index < 3 else "measured", "L1", 8))
            counters.update(
                _requests("warmup" if index < 3 else "measured", "SERVER", 2)
            )
            rows.append(_row(index, (index + 1) * 10.0, counters))
        report = warmup_convergence(rows, tolerance=0.05)
        assert isinstance(report, ConvergenceReport)
        assert report.converged
        assert report.converged_at_s is not None
        assert report.converged_at_s < rows[-1]["t_end"]
        assert 0 < report.final_rate < 1
        assert "L1 hit rate" in report.summary_line()

    def test_no_rows_reports_unconverged(self):
        report = warmup_convergence([])
        assert not report.converged
        assert report.converged_at_s is None
        assert "no requests" in report.summary_line()


class TestTimelineColumns:
    def test_registration_mid_run_keeps_row_semantics(self):
        # Series only ever get added: a counter registered mid-run takes
        # its first delta against 0.0, a gauge appears from its first bin.
        registry = MetricsRegistry()
        first = registry.counter("repro_a_total", {"arch": "t"})
        timeline = Timeline(registry, bin_s=10.0, arch="t")
        first.inc(2)
        timeline.advance(10.0)
        late = registry.counter("repro_b_total", {"arch": "t"})
        gauge = registry.gauge("repro_g", {"arch": "t"})
        late.inc(5)
        gauge.set(3)
        first.inc()
        timeline.finish(20.0)
        assert [row["counters"] for row in timeline.rows] == [
            {'repro_a_total{arch="t"}': 2.0},
            {'repro_a_total{arch="t"}': 1.0, 'repro_b_total{arch="t"}': 5.0},
        ]
        assert [row["gauges"] for row in timeline.rows] == [{}, {'repro_g{arch="t"}': 3.0}]

    def test_group_reader_reads_each_close_once(self):
        registry = MetricsRegistry()
        reads = []
        state = {"n": 0}

        def read():
            reads.append(state["n"])
            return [state["n"], 2 * state["n"]]

        instruments = [
            registry.counter("repro_n_total", {"arch": "t"}, fn=lambda: state["n"]),
            registry.gauge("repro_double", {"arch": "t"}, fn=lambda: 2 * state["n"]),
        ]
        registry.bind_reader(instruments, read)
        timeline = Timeline(registry, bin_s=10.0, arch="t")
        for step in range(3):
            state["n"] = step + 1
            timeline.advance((step + 1) * 10.0)
        assert reads == [1, 2, 3]
        assert [row["counters"] for row in timeline.rows] == [
            {'repro_n_total{arch="t"}': 1.0},
        ] * 3
        assert [row["gauges"]['repro_double{arch="t"}'] for row in timeline.rows] == [
            2.0, 4.0, 6.0,
        ]
        # Rebinding a callback drops the instrument from its group.
        registry.counter("repro_n_total", {"arch": "t"}, fn=lambda: 10)
        assert dict(registry.counter_items(arch="t")) == {'repro_n_total{arch="t"}': 10.0}

    @staticmethod
    def partition(occupancy, origin_factor, requests):
        registry = MetricsRegistry()
        counter = registry.counter("repro_requests_total", {"arch": "t"})
        registry.gauge("repro_cache_entries", {"arch": "t"}, fn=lambda: occupancy)
        registry.gauge("repro_fault_origin_factor", {"arch": "t"}, fn=lambda: origin_factor)
        timeline = Timeline(registry, bin_s=10.0, arch="t")
        counter.inc(requests)
        timeline.finish(10.0)
        return timeline.columns()

    def test_merge_sums_partitions_and_keeps_mirrored_gauges_once(self):
        from repro.obs.telemetry import merge_timeline_columns

        merged = merge_timeline_columns(
            [self.partition(3, 2.0, 1), self.partition(4, 2.0, 5)]
        )
        (row,) = merged.rows()
        assert row["counters"] == {'repro_requests_total{arch="t"}': 6.0}
        assert row["gauges"] == {
            'repro_cache_entries{arch="t"}': 7.0,
            'repro_fault_origin_factor{arch="t"}': 2.0,
        }

    def test_merge_rejects_disagreeing_mirrored_gauges(self):
        from repro.obs.telemetry import merge_timeline_columns

        with pytest.raises(ValueError, match="mirrored"):
            merge_timeline_columns([self.partition(3, 2.0, 1), self.partition(3, 1.0, 1)])

    def test_merge_rejects_incongruent_bins(self):
        from repro.obs.telemetry import merge_timeline_columns

        late = self.partition(3, 2.0, 1)
        late.t_end = [11.0]
        with pytest.raises(ValueError, match="t_end"):
            merge_timeline_columns([self.partition(3, 2.0, 1), late])
