"""Spread study and regression-bound check for the benchmark.

Study: run ``python -m bench`` once per seed (1 to 10) for each workload
and record, for every end-to-end metric, the values, their median and
quartiles, and the spread (interquartile distance over the median).  The
report ends with the bound each metric's spread calls for::

    python3 -m bench.spread --out study.json

Check: compare two studies of the same workloads and list every
(workload, metric) whose median in NEW is worse than in BASE by more than
the metric's bound in ``BENCHMARK.json``; exits 1 when there is one::

    python3 -m bench.spread --compare BASE.json NEW.json

``bench/baseline.json`` is a committed study: the baseline later changes
are measured against.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys

from bench import ROOT, load_spec

#: One run per seed for each workload.
SEEDS = list(range(1, 11))
#: Bound rule: twice the widest spread over the workloads, at least 3% and
#: at most 25% (the largest bound BENCHMARK.json admits), rounded up to a
#: whole percent.  A bound above 10% cannot flag a 10% regression.
BOUND_FLOOR = 0.03
BOUND_TARGET = 0.10
BOUND_MAX = 0.25


def summarize(values: list[float]) -> dict:
    """Median, quartiles (``statistics.quantiles(n=4)``) and relative spread."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "values": values,
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
    }


def run_once(workload: str, seed: int) -> dict:
    """One benchmark run; its result line."""
    completed = subprocess.run(
        [sys.executable, "-m", "bench", "--workload", workload, "--seed", str(seed)],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
        check=True,
    )
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: incorrect result {result}")
    return result


def study(workloads: list[str], seeds: list[int]) -> dict:
    spec = load_spec()
    report = {
        "seeds": seeds,
        "run_seconds": spec["run_seconds"],
        "env": {"nproc": os.cpu_count(), "python": platform.python_version()},
        "workloads": {},
    }
    for workload in workloads:
        values: dict[str, list[float]] = {name: [] for name in spec["end_to_end"]}
        for seed in seeds:
            metrics = run_once(workload, seed)["metrics"]
            for name in values:
                values[name].append(metrics[name]["value"])
            print(
                f"{workload} seed {seed}: "
                + " ".join(f"{name}={metrics[name]['value']:.4g}" for name in values),
                file=sys.stderr,
                flush=True,
            )
        report["workloads"][workload] = {
            name: summarize(series) for name, series in values.items()
        }
    return report


def regressions(base: dict, new: dict, spec: dict) -> list[str]:
    """Every (workload, metric) of ``new`` worse than ``base`` beyond its bound."""
    found = []
    for workload, metrics in new["workloads"].items():
        for name, summary in metrics.items():
            metric = spec["end_to_end"][name]
            before = base["workloads"][workload][name]["median"]
            change = (summary["median"] - before) / before
            worse = change if metric["better"] == "lower" else -change
            if worse > metric["bound"]:
                found.append(
                    f"{workload} {name}: median {before:.4g} -> {summary['median']:.4g} "
                    f"({100 * worse:+.1f}% worse, bound {100 * metric['bound']:.0f}%)"
                )
    return found


def derived_bound(report: dict, name: str) -> float:
    """The bound the rule gives metric ``name`` from a study's spreads."""
    widest = max(metrics[name]["spread"] for metrics in report["workloads"].values())
    percent = math.ceil(round(100 * max(2 * widest, BOUND_FLOOR), 6))
    return min(BOUND_MAX, percent / 100)


def format_report(report: dict, spec: dict) -> str:
    lines = [f"{'workload':<20} {'metric':<12} {'median':>10} {'spread':>7} {'bound':>6}"]
    for workload, metrics in report["workloads"].items():
        for name, summary in metrics.items():
            bound = spec["end_to_end"][name]["bound"]
            flag = "" if summary["spread"] < bound / 3 else "  spread above bound/3"
            lines.append(
                f"{workload:<20} {name:<12} {summary['median']:>10.4g} "
                f"{100 * summary['spread']:>6.1f}% {100 * bound:>5.0f}%{flag}"
            )
    for name in spec["end_to_end"]:
        derived = derived_bound(report, name)
        flag = "  (too noisy to flag a 10% regression)" if derived > BOUND_TARGET else ""
        lines.append(f"derived bound {name}: {100 * derived:.0f}%{flag}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(prog="python -m bench.spread")
    parser.add_argument("--out", help="write the study as JSON")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    args = parser.parse_args(argv)

    if args.compare:
        with open(args.compare[0], encoding="utf-8") as stream:
            base = json.load(stream)
        with open(args.compare[1], encoding="utf-8") as stream:
            new = json.load(stream)
        found = regressions(base, new, spec)
        print("\n".join(found) if found else "no metric worse than its bound")
        return 1 if found else 0

    report = study([workload["name"] for workload in spec["workloads"]], SEEDS)
    print(format_report(report, spec))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as stream:
            json.dump(report, stream, indent=2, sort_keys=True)
            stream.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
