"""Checks of the benchmark itself: ``python3 -m pytest bench -q``.

The tier-1 suite does not collect this file (its ``testpaths`` is
``tests``).  The smoke runs shrink every workload to a small scale, so the
whole file takes well under a minute.
"""

from __future__ import annotations

import copy
import json
import math
import os
import re
import shutil
import subprocess
import sys

import pytest

from bench import ROOT, load_spec

sys.path.insert(0, os.path.join(ROOT, "src"))

from bench import __main__ as bench_main  # noqa: E402
from bench import runner, spread, workloads  # noqa: E402
from repro.hierarchy.data_hierarchy import DataHierarchy  # noqa: E402
from repro.netmodel.testbed import TestbedCostModel  # noqa: E402
from repro.obs.profiling import check_chrome_trace  # noqa: E402
from repro.runner.trace_cache import get_trace_cache, set_trace_cache  # noqa: E402
from repro.sim.config import default_config  # noqa: E402
from repro.sim.engine import run_simulation  # noqa: E402
from repro.traces.synthetic import SyntheticTraceGenerator  # noqa: E402

SMOKE_SCALE = 0.0005
#: ``paper_all`` runs twenty experiments per operation; at SMOKE_SCALE one
#: operation takes most of a minute, so its smoke run uses a smaller scale.
PAPER_SMOKE_SCALE = 0.00002
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.fixture(autouse=True)
def restore_trace_cache():
    previous = get_trace_cache()
    yield
    set_trace_cache(previous)


def small_metrics():
    config = default_config().with_scale(SMOKE_SCALE)
    trace = SyntheticTraceGenerator(config.profile("dec"), seed=3).generate()
    return run_simulation(trace, DataHierarchy(config.topology, TestbedCostModel()))


def test_digest_is_stable_and_sees_one_counter():
    metrics = small_metrics()
    digest = workloads.metrics_digest(metrics)
    assert workloads.metrics_digest(small_metrics()) == digest
    assert workloads.metrics_digest(copy.deepcopy(metrics)) == digest

    perturbed = copy.deepcopy(metrics)
    perturbed.remote_hits += 1
    assert workloads.metrics_digest(perturbed) != digest

    one_ulp = copy.deepcopy(metrics)
    one_ulp.total_ms = math.nextafter(one_ulp.total_ms, math.inf)
    assert workloads.metrics_digest(one_ulp) != digest


def test_metric_names_and_units():
    spec = load_spec()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    names = list(spec["end_to_end"]) + list(spec["per_layer"])
    assert len(names) == len(set(names))
    for metric in [*spec["end_to_end"].values(), *spec["per_layer"].values()]:
        assert NAME.fullmatch(metric["name"]), metric
        assert UNIT.fullmatch(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher"), metric
    bounds = {name: metric["bound"] for name, metric in spec["end_to_end"].items()}
    assert all(spread.BOUND_FLOOR <= bound <= spread.BOUND_MAX for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def load_baseline() -> dict:
    with open(os.path.join(ROOT, "bench", "baseline.json"), encoding="utf-8") as stream:
        return json.load(stream)


def test_bounds_are_the_ones_the_baseline_spreads_call_for():
    spec, baseline = load_spec(), load_baseline()
    derived = {name: spread.derived_bound(baseline, name) for name in spec["end_to_end"]}
    derived["setup_s"] = max(derived.values())  # setup_s carries the largest bound
    assert {name: metric["bound"] for name, metric in spec["end_to_end"].items()} == derived


def rerun_at_worst_quartile(study: dict, spec: dict) -> dict:
    rerun = copy.deepcopy(study)
    for metrics in rerun["workloads"].values():
        for name, summary in metrics.items():
            worst = "q3" if spec["end_to_end"][name]["better"] == "lower" else "q1"
            summary["median"] = summary[worst]
    return rerun


def slowed(study: dict, factor: float) -> dict:
    """``study`` with every operation ``factor`` times slower."""
    slower = copy.deepcopy(study)
    for metrics in slower["workloads"].values():
        for name in ("wall_s", "cpu_s"):
            metrics[name]["median"] *= factor
    return slower


def test_bound_check_passes_a_rerun_and_flags_a_slowdown_beyond_the_bound():
    spec, baseline = load_spec(), load_baseline()
    assert spread.regressions(baseline, baseline, spec) == []
    assert spread.regressions(baseline, rerun_at_worst_quartile(baseline, spec), spec) == []
    beyond = 1 + max(spec["end_to_end"][name]["bound"] for name in ("wall_s", "cpu_s")) + 0.01
    flagged = spread.regressions(baseline, slowed(baseline, beyond), spec)
    assert len(flagged) == 2 * len(baseline["workloads"]), flagged


def test_bounds_from_a_steady_study_flag_a_ten_percent_slowdown():
    # A study whose spreads are 2.25%: the rule gives 5% bounds, and a
    # rerun passes while every workload 10% slower is flagged.
    spec = load_spec()
    values = [9.8, 9.85, 9.9, 9.95, 10.0, 10.0, 10.05, 10.1, 10.15, 10.2]
    summary = spread.summarize(values)
    study = {
        "workloads": {
            workload: {name: copy.deepcopy(summary) for name in spec["end_to_end"]}
            for workload in workloads.WORKLOADS
        }
    }
    steady = copy.deepcopy(spec)
    for name, metric in steady["end_to_end"].items():
        metric["bound"] = spread.derived_bound(study, name)
    assert {metric["bound"] for metric in steady["end_to_end"].values()} == {0.05}
    assert spread.regressions(study, rerun_at_worst_quartile(study, steady), steady) == []
    flagged = spread.regressions(study, slowed(study, 1.10), steady)
    assert len(flagged) == 2 * len(workloads.WORKLOADS), flagged


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_smoke_every_workload(name, tmp_path):
    scale = PAPER_SMOKE_SCALE if name == "paper_all" else SMOKE_SCALE
    workload = workloads.WORKLOADS[name](seed=7, tmp=str(tmp_path), scale=scale)
    assert workload.setup() > 0
    untraced = workload.op()
    inline = workload.inline_op()
    assert untraced.error is None and untraced.digests
    assert inline.digests == untraced.digests
    assert untraced.wall_s > 0 and untraced.cpu_s > 0


def test_traced_run_reports_every_layer_and_a_valid_trace(tmp_path):
    workload = workloads.FaultedConstrained(seed=7, tmp=str(tmp_path), scale=SMOKE_SCALE)
    workload.setup()
    chrome = str(tmp_path / "trace.json")
    passes, metrics, problems = runner.traced_run(workload, 0.01, chrome)
    assert problems == []
    assert set(metrics) == set(load_spec()["per_layer"])
    assert metrics["faults.events"] > 0 and metrics["telemetry.bins"] > 0
    assert metrics["obs.span_accounted_frac"] >= 0.99
    with open(chrome, encoding="utf-8") as stream:
        assert check_chrome_trace(json.load(stream)) == []
    attempted, failed, _ = runner.count_failures(
        [sample for group in passes.values() for sample in group], None
    )
    assert attempted > 0 and failed == 0


def test_pins_catch_a_wrong_digest():
    good = workloads.Sample(1.0, 1.0, {"a": "x", "b": "y"})
    bad = workloads.Sample(1.0, 1.0, {"a": "x", "b": "z"})
    raised = workloads.Sample(1.0, 1.0, {}, error="boom")
    assert runner.count_failures([good, good], None)[:2] == (4, 0)
    assert runner.count_failures([good, bad], None)[:2] == (4, 1)
    assert runner.count_failures([good], {"a": "x", "b": "z"})[:2] == (2, 1)
    assert runner.count_failures([good, raised], None)[:2] == (4, 2)


def test_runner_result_makes_the_contract_line(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads.FaultedConstrained, "default_scale", SMOKE_SCALE)
    out = tmp_path / "result.json"
    runner.main(
        [
            "--workload", "faulted_constrained", "--seed", "5", "--seconds", "0.5",
            "--trace", "0", "--tmp", str(tmp_path), "--out", str(out),
            "--chrome", str(tmp_path / "unused.json"),
        ]
    )
    result = json.loads(out.read_text())
    result["metrics"]["peak_rss_mb"] = 1.0  # added by the driver, from os.wait4
    assert result["context"]["digest_checked"] is False
    more = result["context"]["metrics"]
    assert more["failed_frac"] == {"value": 0.0, "unit": "ratio"}
    assert more["sim_requests_per_s"]["value"] > 0

    spec = load_spec()["end_to_end"]
    line = bench_main.contract_line(result, spec)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] > 0
    assert set(line["metrics"]) == set(spec)
    for name, metric in line["metrics"].items():
        assert metric["unit"] == spec[name]["unit"] and metric["value"] > 0


def test_driver_refuses_another_run_length():
    seconds = load_spec()["run_seconds"] + 1
    completed = subprocess.run(
        [sys.executable, "-m", "bench", "--seconds", str(seconds)],
        cwd=ROOT,
        capture_output=True,
        text=True,
    )
    assert completed.returncode != 0 and completed.stdout == ""


def test_driver_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        os.path.join(ROOT, "bench"), tmp_path / "bench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    spec = load_spec()
    completed = subprocess.run(
        [
            sys.executable, "-m", "bench", "--workload", "paper_all", "--seed", "1",
            "--seconds", str(spec["run_seconds"]), "--trace", "0",
        ],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert completed.returncode != 0 and completed.stdout == ""
