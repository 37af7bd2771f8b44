"""Benchmark driver.  Run from the repository root::

    python3 -m bench [--workload NAME] [--seed N] [--trace 0|1 | --traced]

Each workload runs in a fresh child process (``python -m bench.runner``),
one workload at a time, with ``OMP_NUM_THREADS``, ``OPENBLAS_NUM_THREADS``
and ``MKL_NUM_THREADS`` set to 1.  The driver reaps the child with
``os.wait4``, so ``peak_rss_mb`` covers the child and every process it
started.  Without ``--workload`` all four workloads run.  Each run
measures for ``run_seconds`` of ``BENCHMARK.json``; ``--seconds`` may be
given, but only with that value.

For each workload it prints a context line, ``{"context": {...}}`` (git
sha, nproc, Python and NumPy versions, trace fingerprints, operation
counts, and the metrics ``BENCHMARK.json`` cannot hold: ``failed_frac``
and, on the comparisons, ``sim_requests_per_s``), then the result line::

    {"correct": true, "attempted": 20, "failed": 0,
     "metrics": {"wall_s": {"value": 4.1, "unit": "s"}, ...}}

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``,
``--trace 1`` the per-layer ones, and writes a Perfetto trace to
``.bench_out/``.  A child that fails prints no result line and makes the
driver exit with status 1.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

from bench import ROOT, load_spec, run_reaped

SINGLE_THREADED = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def git_sha() -> str | None:
    """The checked-out commit (``None`` outside a git repository)."""
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
    except OSError:
        return None
    return completed.stdout.strip() if completed.returncode == 0 else None


def contract_line(result: dict, catalogue: dict) -> dict:
    """The result line: outcome counts and every catalogue metric with its unit."""
    metrics = {
        metric: {"value": result["metrics"][metric], "unit": catalogue[metric]["unit"]}
        for metric in catalogue
    }
    line = {key: result[key] for key in ("correct", "attempted", "failed")}
    return dict(line, metrics=metrics)


def run_workload(name: str, args, run_seconds: int) -> dict | None:
    """Run one workload in a child; its result, or ``None`` if it failed."""
    tmp = os.path.join(ROOT, ".bench_tmp", f"{name}-{os.getpid()}")
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    out = os.path.join(tmp, "result.json")
    chrome = os.path.join(ROOT, ".bench_out", f"{name}-seed{args.seed}.perfetto.json")
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join([os.path.join(ROOT, "src"), ROOT]),
        PYTHONHASHSEED="0",
        **SINGLE_THREADED,
    )
    command = [
        sys.executable, "-m", "bench.runner",
        "--workload", name,
        "--seed", str(args.seed),
        "--seconds", str(run_seconds),
        "--trace", str(args.trace),
        "--tmp", tmp,
        "--out", out,
        "--chrome", chrome,
    ]
    try:
        # The child's stdout joins our stderr: stdout carries results only.
        # Its own group holds every process it starts (CLI runs, pool
        # workers), so an interrupted run stops them all.
        status, _wall, usage = run_reaped(
            command, cwd=ROOT, env=env, stdout=sys.stderr, start_new_session=True
        )
        if status != 0:
            print(f"bench: {name} exited with status {status}", file=sys.stderr)
            return None
        with open(out, encoding="utf-8") as stream:
            result = json.load(stream)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if args.trace:
        result["context"]["perfetto"] = os.path.relpath(chrome, ROOT)
    else:
        result["metrics"]["peak_rss_mb"] = usage.ru_maxrss / 1024.0
    return result


def record_pins(name: str, seed: int, digests: dict[str, str]) -> None:
    path = os.path.join(ROOT, "bench", "expected", f"{name}.json")
    pins = {}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as stream:
            pins = json.load(stream)
    pins[str(seed)] = digests
    with open(path, "w", encoding="utf-8") as stream:
        json.dump(pins, stream, indent=2, sort_keys=True)
        stream.write("\n")


def main(argv: list[str] | None = None) -> int:
    spec = load_spec()
    names = [workload["name"] for workload in spec["workloads"]]
    parser = argparse.ArgumentParser(prog="python -m bench", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=names, help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=42, help="input seed (default 42)")
    # Run length is fixed by BENCHMARK.json; --seconds is accepted only with
    # that value, so every commit is measured with the same run length.
    parser.add_argument(
        "--seconds", type=float, choices=[float(spec["run_seconds"])],
        help="must equal run_seconds of BENCHMARK.json",
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), default=0,
        help="1: traced run reporting the per-layer metrics",
    )
    parser.add_argument(
        "--traced", dest="trace", action="store_const", const=1, help="same as --trace 1"
    )
    parser.add_argument(
        "--record-pins", action="store_true",
        help="write the observed digests as this seed's pins in bench/expected",
    )
    args = parser.parse_args(argv)
    # Turn a termination request into SystemExit, so the running child's
    # process group is killed and reaped on the way out.
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"bench: no repro package under {ROOT}/src", file=sys.stderr)
        return 2

    catalogue = spec["per_layer" if args.trace else "end_to_end"]
    status = 0
    for name in [args.workload] if args.workload else names:
        result = run_workload(name, args, spec["run_seconds"])
        missing = sorted(set(catalogue) - set(result["metrics"])) if result else []
        if result is None or missing:
            if missing:
                print(f"bench: {name} did not report {missing}", file=sys.stderr)
            status = 1
            continue
        if args.record_pins:
            record_pins(name, args.seed, result["digests"])
        context = dict(result["context"], git_sha=git_sha(), nproc=os.cpu_count())
        print(json.dumps({"context": context}, sort_keys=True))
        print(json.dumps(contract_line(result, catalogue)), flush=True)
    return status


if __name__ == "__main__":
    raise SystemExit(main())
