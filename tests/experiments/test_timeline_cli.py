"""The ``timeline`` CLI verb: exports, validation, and flag guards."""

from __future__ import annotations

import pytest

from repro.experiments.base import trace_for
from repro.experiments.cli import main
from repro.hierarchy.data_hierarchy import DataHierarchy
from repro.hierarchy.directory_arch import CentralizedDirectoryArchitecture
from repro.hierarchy.hint_hierarchy import HintHierarchy
from repro.hierarchy.icp import IcpHierarchy
from repro.netmodel.testbed import TestbedCostModel
from repro.obs.export import (
    check_prometheus_text,
    check_timeline_rows,
    prometheus_text,
    read_timeline_jsonl,
    write_timeline_jsonl,
)
from repro.obs.telemetry import MetricsRegistry, RunTelemetry
from repro.sim.config import default_config
from repro.sim.engine import run_simulation


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """One tiny timeline run shared by the assertions below."""
    out = tmp_path_factory.mktemp("timeline")
    jsonl = out / "timeline.jsonl"
    prom = out / "metrics.prom"
    status = main(
        [
            "timeline",
            "--scale", "0.0002",
            "--timeline", str(jsonl),
            "--prometheus", str(prom),
        ]
    )
    return status, jsonl, prom


class TestTimelineVerb:
    def test_exits_cleanly(self, outputs):
        assert outputs[0] == 0

    def test_jsonl_rows_valid_for_all_architectures(self, outputs):
        rows = read_timeline_jsonl(str(outputs[1]))
        assert check_timeline_rows(rows) == []
        assert {row["arch"] for row in rows} == {
            "hierarchy", "icp", "hints", "directory",
        }

    def test_prometheus_exposition_valid(self, outputs):
        problems = check_prometheus_text(outputs[2].read_text())
        assert problems == []

    def test_exported_rows_render_chart_and_convergence(self, outputs):
        from repro.obs.telemetry import warmup_convergence
        from repro.reporting.timeline import render_hit_rate_chart

        rows = read_timeline_jsonl(str(outputs[1]))
        assert "hit rate" in render_hit_rate_chart(rows)
        hierarchy = [row for row in rows if row["arch"] == "hierarchy"]
        assert "L1 hit rate" in warmup_convergence(hierarchy).summary_line()

    def test_rows_equal_reference_library_run(self, outputs, tmp_path):
        """The verb's rows and exposition are byte-identical to the
        reference loop's."""
        config = default_config().with_scale(0.0002)
        trace = trace_for(config, "dec")
        cost = TestbedCostModel()
        registry = MetricsRegistry()
        rows = []
        for factory in (
            DataHierarchy,
            IcpHierarchy,
            HintHierarchy,
            CentralizedDirectoryArchitecture,
        ):
            telemetry = RunTelemetry(registry, bin_s=3600.0)
            run_simulation(
                trace,
                factory(config.topology, cost),
                telemetry=telemetry,
                engine="reference",
            )
            rows.extend(telemetry.rows)
        reference = tmp_path / "reference.jsonl"
        write_timeline_jsonl(rows, str(reference))
        assert outputs[1].read_bytes() == reference.read_bytes()
        assert outputs[2].read_text() == prometheus_text(registry)

    def test_csv_extension_switches_format(self, tmp_path):
        out = tmp_path / "timeline.csv"
        assert main(["timeline", "--scale", "0.0002", "--timeline", str(out)]) == 0
        header = out.read_text().splitlines()[0]
        assert header.startswith("arch,bin,t_start,t_end")


class TestGuards:
    def test_timeline_takes_no_experiment_names(self):
        assert main(["timeline", "figure1"]) == 2

    def test_timeline_flag_requires_verb(self):
        assert main(["figure1", "--timeline", "x.jsonl"]) == 2

    def test_prometheus_flag_requires_verb(self):
        assert main(["figure1", "--prometheus", "x.prom"]) == 2

    def test_bin_must_be_positive(self):
        assert main(["timeline", "--bin", "0"]) == 2

    def test_engine_flag_removed(self):
        with pytest.raises(SystemExit) as exit_info:
            main(["timeline", "--engine", "fast"])
        assert exit_info.value.code == 2
