"""The ``profile`` CLI verb: Chrome-trace export, table, and flag guards."""

from __future__ import annotations

import json
import re

from repro.experiments.cli import main
from repro.obs.profiling import SIM_TRACK_PID, check_chrome_trace


class TestProfileVerb:
    def test_run_writes_valid_trace_and_reconciles(self, tmp_path, capsys):
        out = tmp_path / "profile.json"
        assert main(["profile", "--scale", "0.0002", "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        # The comparison table and the profile table both rendered.
        assert "architecture comparison" in stdout
        assert "host profile" in stdout
        assert str(out) in stdout
        # Acceptance: self time reconciles with wall-clock within 1%.
        match = re.search(r"span-accounted .* \((\d+(?:\.\d+)?)%\)", stdout)
        assert match, stdout
        assert abs(float(match.group(1)) - 100.0) <= 1.0
        # The written artifact is a valid Chrome trace with the
        # documented nesting: profile_run > comparison > task > simulate,
        # and the verb runs the fast engine's batches, never the
        # per-request reference loop.
        payload = json.loads(out.read_text())
        assert check_chrome_trace(payload) == []
        names = {e["name"] for e in payload["traceEvents"] if e["ph"] == "X"}
        assert {"profile_run", "comparison", "task", "simulate", "batch"} <= names
        assert "reference_loop" not in names

    def test_trace_gen_span_present_on_cold_store(self, tmp_path, capsys):
        out = tmp_path / "profile.json"
        status = main(
            [
                "profile",
                "--scale", "0.0002",
                "--out", str(out),
                "--trace-cache", str(tmp_path / "store"),
            ]
        )
        assert status == 0
        capsys.readouterr()
        payload = json.loads(out.read_text())
        names = [e["name"] for e in payload["traceEvents"] if e["ph"] == "X"]
        assert names.count("trace_gen") == 1  # generated once, reused thrice
        assert names.count("trace_fetch") == 4

    def test_memory_and_sim_track(self, tmp_path, capsys):
        out = tmp_path / "profile.json"
        status = main(
            [
                "profile",
                "--scale", "0.0002",
                "--out", str(out),
                "--memory",
                "--sim-track",
            ]
        )
        assert status == 0
        stdout = capsys.readouterr().out
        assert "peak_rss" in stdout
        payload = json.loads(out.read_text())
        assert check_chrome_trace(payload) == []
        sim = [
            e
            for e in payload["traceEvents"]
            if e["ph"] == "X" and e["pid"] == SIM_TRACK_PID
        ]
        assert sim, "sim-track should add a simulated-time process"
        host = [
            e
            for e in payload["traceEvents"]
            if e["ph"] == "X" and e["pid"] != SIM_TRACK_PID
        ]
        assert any("mem_peak_kb" in e.get("args", {}) for e in host)


class TestGuards:
    def test_profile_takes_no_experiment_names(self):
        assert main(["profile", "figure1"]) == 2

    def test_out_flag_requires_verb(self):
        assert main(["figure1", "--out", "x.json"]) == 2

    def test_memory_flag_requires_verb(self):
        assert main(["figure1", "--memory"]) == 2

    def test_sim_track_flag_requires_verb(self):
        assert main(["figure1", "--sim-track"]) == 2

    def test_jobs_must_be_positive(self):
        assert main(["profile", "--jobs", "0"]) == 2
