"""Shape tests for client-hints, ablations, registry and CLI."""

from __future__ import annotations

import gc
import os

import pytest

from repro.experiments import ablations, client_hints
from repro.experiments.cli import main
from repro.experiments.registry import all_experiments, get_experiment
from tests.conftest import LiveBuilds, make_tiny_config


class TestClientHints:
    @pytest.fixture(scope="class")
    def result(self):
        return client_hints.run(make_tiny_config())

    def test_complete_client_hints_beat_proxy_hints(self, result):
        """The Figure 4b advantage: skipping the L1 relay is faster."""
        complete = result.rows[0]
        assert complete["client_fn_rate"] == 0.0
        assert complete["client_superior"]

    def test_useless_client_hints_lose(self, result):
        assert not result.rows[-1]["client_superior"]

    def test_response_time_monotone_in_fn_rate(self, result):
        times = [row["client_config_ms"] for row in result.rows]
        assert all(b >= a - 1.0 for a, b in zip(times, times[1:]))

    def test_crossover_recorded(self, result):
        assert "measured crossover here" in result.paper_claims


class TestAblations:
    @pytest.fixture(scope="class")
    def result(self):
        return ablations.run(make_tiny_config())

    def test_all_seven_studies_present(self, result):
        studies = {row["study"] for row in result.rows}
        assert studies == {
            "ablation_icp",
            "ablation_fanout",
            "ablation_branching",
            "ablation_consistency",
            "ablation_plaxton_load",
            "ablation_negative_caching",
            "ablation_push_locality",
        }

    def test_push_locality_shifts_remote_hits_to_l2(self, result):
        rows = [
            row for row in result.rows
            if row["study"] == "ablation_push_locality"
        ]
        by_key = {(row["workload"], row["system"]): row for row in rows}
        assert (
            by_key[("regional interest", "hints")]["l2_share_of_remote"]
            > by_key[("global interest", "hints")]["l2_share_of_remote"]
        )
        # Pushes pay off more where interest is regional.
        assert (
            by_key[("regional interest", "hints+push-1")]["push_efficiency"]
            >= by_key[("global interest", "hints+push-1")]["push_efficiency"] * 0.9
        )

    def test_negative_caching_saves_contacts(self, result):
        rows = [
            row for row in result.rows
            if row["study"] == "ablation_negative_caching"
        ]
        assert rows[0]["saved_frac"] == 0.0  # no-cache baseline
        shared = [row for row in rows if row["organization"] == "hint-shared"]
        local = [row for row in rows if row["organization"] == "per-proxy"]
        # Sharing negative results reaches repeats local caches cannot.
        for shared_row, local_row in zip(shared, local):
            assert shared_row["saved_frac"] >= local_row["saved_frac"]
        # At the day-long TTL the shared cache saves real traffic.
        assert shared[-1]["saved_frac"] > 0.0

    def test_plaxton_fabric_spreads_the_load(self, result):
        rows = {
            row["organization"]: row
            for row in result.rows
            if row["study"] == "ablation_plaxton_load"
        }
        assert (
            rows["plaxton fabric"]["busiest_node_messages"]
            < rows["fixed balanced tree"]["busiest_node_messages"]
        )

    def test_icp_slower_than_hints(self, result):
        icp_rows = {
            row["architecture"]: row
            for row in result.rows
            if row["study"] == "ablation_icp"
        }
        assert icp_rows["hints"]["mean_response_ms"] < icp_rows["icp"]["mean_response_ms"]

    def test_fanout_speedups_all_exceed_one(self, result):
        for row in result.rows:
            if row["study"] == "ablation_fanout":
                assert row["speedup"] > 1.0

    def test_branching_filter_ratios_at_least_one(self, result):
        for row in result.rows:
            if row["study"] == "ablation_branching":
                assert row["filter_ratio"] >= 1.0

    def test_consistency_distortion_both_ways(self, result):
        rows = {
            row["consistency"]: row
            for row in result.rows
            if row["study"] == "ablation_consistency"
        }
        strong = rows["strong (invalidation)"]
        assert strong["stale_hits_served"] == 0
        assert strong["fresh_discards"] == 0
        for name, row in rows.items():
            if name.startswith("weak"):
                assert row["stale_hits_served"] > 0
                assert row["fresh_discards"] > 0
        # Longer TTLs serve more stale data but discard less good data.
        short = rows["weak (TTL 0.5 days)"]
        long = rows["weak (TTL 8 days)"]
        assert long["stale_hits_served"] > short["stale_hits_served"]
        assert long["fresh_discards"] < short["fresh_discards"]


class TestRegistry:
    def test_every_name_resolves(self):
        for name in all_experiments():
            assert callable(get_experiment(name))

    def test_twenty_experiments_registered(self):
        assert len(all_experiments()) == 20

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError, match="unknown experiment"):
            get_experiment("figure99")


class TestCli:
    def test_list(self, capsys):
        assert main(["--list"]) == 0
        output = capsys.readouterr().out
        assert "figure8" in output
        assert "table6" in output

    def test_no_arguments_is_an_error(self, capsys):
        assert main([]) == 2

    def test_unknown_experiment_is_an_error(self, capsys):
        assert main(["figure99"]) == 2

    def test_runs_a_cheap_experiment(self, capsys):
        assert main(["figure1"]) == 0
        output = capsys.readouterr().out
        assert "testbed access times" in output
        assert "completed in" in output

    def test_chart_flag_renders_chart(self, capsys):
        assert main(["figure1", "--chart"]) == 0
        output = capsys.readouterr().out
        assert "o=hier_l3_ms" in output

    def test_profile_flag_threads_through(self, capsys):
        assert main(["figure5", "--profile", "prodigy", "--scale", "0.0005"]) == 0
        output = capsys.readouterr().out
        assert "prodigy trace" in output

    def test_profile_flag_ignored_by_sweeping_experiments(self, capsys):
        # table4 sweeps all traces and takes no profile_name; must not crash.
        assert main(["table4", "--profile", "berkeley", "--scale", "0.0002"]) == 0

    def test_profile_flag_runs_across_workers(self, capsys):
        def table(stdout):
            lines = stdout.split("run summary")[0].splitlines()
            return [line for line in lines if "completed in" not in line]

        argv = ["figure5", "--profile", "prodigy", "--scale", "0.0005"]
        assert main([*argv, "--jobs", "1"]) == 0
        serial = capsys.readouterr()
        assert main([*argv, "--jobs", "2"]) == 0
        parallel = capsys.readouterr()
        assert "prodigy trace" in parallel.out
        assert table(parallel.out) == table(serial.out)
        assert "forces --jobs 1" not in parallel.err

    @pytest.mark.parametrize(
        "argv",
        [
            ["decompose", "--timeline", "X"],
            ["decompose", "--prometheus", "X"],
            ["decompose", "--out", "X"],
            ["timeline", "--journeys", "X"],
            ["timeline", "--out", "X"],
            ["profile", "--journeys", "X"],
            ["profile", "--shards", "2"],
            ["decompose", "--jobs", "0"],
            ["timeline", "--jobs", "0"],
            ["decompose", "--export-dir", "EXP", "--chart"],
            ["decompose", "--all"],
            ["decompose", "--list"],
            ["decompose", "--bin", "-5"],
            ["timeline", "--export-dir", "EXP"],
            ["profile", "--export-dir", "EXP"],
            ["profile", "--chart"],
            ["figure1", "--bin", "5"],
            ["decompose", "--jobs", "4"],
            ["timeline", "--jobs", "4"],
        ],
        ids=lambda argv: "_".join(argv).replace("-", ""),
    )
    def test_verb_refuses_a_flag_it_would_ignore(self, argv, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main([*argv, "--scale", "0.0001"]) == 2
        assert list(tmp_path.iterdir()) == []

    def test_jobs_defaults_to_the_usable_cpus(self, capsys, monkeypatch, tmp_path):
        """Experiments get one worker per usable CPU, capped by their work
        units; a verb runs in one process unless --jobs is given."""
        monkeypatch.setattr(
            os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False
        )
        assert main(["figure1", "table3"]) == 0
        assert "run summary (2 jobs)" in capsys.readouterr().out
        out = str(tmp_path / "profile.json")
        assert main(["profile", "--scale", "0.0001", "--out", out]) == 0
        assert "jobs=1" in capsys.readouterr().out

    def test_decompose_prints_latency_table(self, capsys, tmp_path):
        out = tmp_path / "j.jsonl"
        assert main(["decompose", "--scale", "0.0002", "--journeys", str(out)]) == 0
        output = capsys.readouterr().out
        assert "latency decomposition" in output
        for column in ("origin_fetch", "level_traversal", "mean_ms"):
            assert column in output
        lines = out.read_text().splitlines()
        assert lines  # every measured request of all four architectures
        import json as _json

        arches = {_json.loads(line)["arch"] for line in lines}
        assert arches == {"hierarchy", "icp", "hints", "directory"}

    def test_decompose_keeps_one_architecture_alive(self, capsys, monkeypatch):
        from repro.experiments import cli

        live = LiveBuilds()
        standard = cli._standard_specs
        monkeypatch.setattr(
            cli, "_standard_specs", lambda *args: live.wrap(standard(*args))
        )
        gc.disable()
        try:
            assert main(["decompose", "--scale", "0.0002"]) == 0
        finally:
            gc.enable()
        assert live.alive_at_build == [0, 0, 0, 0]

    def test_decompose_takes_no_experiment_names(self, capsys):
        assert main(["decompose", "figure1"]) == 2

    def test_journeys_requires_decompose(self, capsys):
        assert main(["figure1", "--journeys", "x.jsonl"]) == 2
