"""One workload in one process: set up, time, trace and check it.

The driver (``python -m bench``) starts this module in a fresh child per
workload::

    python -m bench.runner --workload NAME --seed N --seconds S --trace 0|1 \\
        --tmp DIR --out RESULT.json --chrome TRACE.json

and adds what only the parent can see (peak RSS from ``os.wait4``).

Untraced (``--trace 0``): the set-up runs ``setup_reps`` times, then the
workload's operation runs in a closed loop until the next operation would
end past ``--seconds``.  ``wall_s``, ``cpu_s`` and ``setup_s`` are medians.

Traced (``--trace 1``): the set-up runs once, and the time is split between
an untraced and a traced
pass of the in-process form of the operation (plus, for
``sharded_timeline``, an untraced pass of the ``jobs=2`` run).  The traced
pass attaches a :class:`~repro.obs.profiling.SpanProfiler` and wraps every
operation in a bench-side ``op`` span; the per-layer metrics come from its
span forest, which is also written as a Perfetto trace.

Every operation's output digests must equal the first operation's, and,
for seeds pinned in ``bench/expected/<workload>.json``, the pins.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
import traceback

import numpy

import repro
from bench import ROOT, load_spec
from bench.workloads import WORKLOADS, Sample, cpu_seconds, seconds_per_op
from repro.obs import profiling

def guarded(op):
    """Run one operation, turning an exception into a failed sample."""
    cpu = cpu_seconds()
    start = time.perf_counter()
    try:
        return op()
    except Exception as exc:  # an operation failure is a result, not a crash
        traceback.print_exc()
        return Sample(
            time.perf_counter() - start, cpu_seconds() - cpu, {}, error=repr(exc)
        )


def timed_loop(op, budget_s: float) -> list:
    """Closed loop: run ``op`` until the next run would end past the budget.

    At least one operation always runs.  Only the last sample keeps its
    ``detail``, so results held for the per-layer metrics do not grow the
    peak RSS with the number of operations.
    """
    samples = []
    start = time.perf_counter()
    while True:
        if samples:
            samples[-1].detail = None
        samples.append(guarded(op))
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(s.wall_s for s in samples) > budget_s:
            return samples


def load_pins(workload: str, seed: int) -> dict[str, str] | None:
    path = os.path.join(ROOT, "bench", "expected", f"{workload}.json")
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as stream:
        return json.load(stream).get(str(seed))


def count_failures(samples, pins) -> tuple[int, int, dict[str, str]]:
    """``(attempted, failed, observed digests)`` over every sample.

    An item fails when its operation raised, its digest is missing, or
    its digest differs from the reference: the pins when the seed is
    pinned, else the first successful operation's digests (which are
    returned as the observed ones).
    """
    observed = next((s.digests for s in samples if s.error is None), {})
    reference = observed if pins is None else pins
    attempted = failed = 0
    for sample in samples:
        items = max(1, len(reference))
        attempted += items
        if sample.error is not None or not reference:
            failed += items
            continue
        wrong = {item for item, digest in reference.items() if sample.digests.get(item) != digest}
        failed += len(wrong) + len(set(sample.digests) - set(reference))
    return attempted, failed, observed


def quantile(values: list[float], fraction: float) -> float:
    """Nearest-rank quantile; 0 for an empty list."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(fraction * len(ordered)))]


def index_spans(roots) -> dict[str, list]:
    spans: dict[str, list] = {}
    for root in roots:
        for span in root.walk():
            spans.setdefault(span.name, []).append(span)
    return spans


def span_metrics(passes, spans, roots) -> dict[str, float]:
    """Per-layer metrics every workload reports from its traced pass.

    Counts and times are per traced operation.
    """
    ops = len(passes["traced"])
    traced_wall = sum(s.wall_s for s in passes["traced"])

    def count(name):
        return len(spans.get(name, [])) / ops

    def total(name):
        return seconds_per_op(spans.get(name, []), ops)

    def attr_sum(name, attr):
        return sum(s.attrs.get(attr, 0) for s in spans.get(name, []))

    simulate = spans.get("simulate", [])
    fallbacks = [
        s
        for s in simulate
        if s.attrs.get("engine") != "reference"
        and any(child.name == "reference_loop" for child in s.children)
    ]
    batch_rows = attr_sum("batch", "rows")
    residual_rows = attr_sum("residual_replay", "rows")
    fast_rows = batch_rows + residual_rows
    batch_ms = [s.duration_s * 1e3 for s in spans.get("batch", [])]
    simulate_s = [s.duration_s for s in simulate]
    accounted = sum(span.self_s for root in roots for span in root.walk())
    untraced = statistics.median(s.wall_s for s in passes["inline"])
    traced = statistics.median(s.wall_s for s in passes["traced"])
    return {
        "engine.simulations": count("simulate"),
        "engine.reference_simulations": count("reference_loop"),
        "engine.reference_loop_s": total("reference_loop"),
        "engine.reference_share": total("reference_loop") * ops / traced_wall,
        "engine.auto_fallbacks": len(fallbacks) / ops,
        "engine.simulate_p50_s": quantile(simulate_s, 0.50),
        "engine.simulate_p90_s": quantile(simulate_s, 0.90),
        "fastpath.batches": count("batch"),
        "fastpath.rows": fast_rows / ops,
        "fastpath.classify_s": total("classify"),
        "fastpath.cost_reconstruct_s": total("cost_reconstruct"),
        "fastpath.metrics_fold_s": total("metrics_fold"),
        "fastpath.residual_replay_s": total("residual_replay"),
        "fastpath.residual_rows": residual_rows / ops,
        "fastpath.vectorized_frac": 1.0 - residual_rows / fast_rows if fast_rows else 0.0,
        "fastpath.l1_hit_frac": (
            attr_sum("batch", "l1_hits") / batch_rows if batch_rows else 0.0
        ),
        "fastpath.batch_p50_ms": quantile(batch_ms, 0.50),
        "fastpath.batch_p95_ms": quantile(batch_ms, 0.95),
        "telemetry.bins": count("telemetry_bin_close"),
        "telemetry.bin_close_s": total("telemetry_bin_close"),
        "telemetry.export_s": total("export"),
        "parallel.tasks": count("task"),
        "parallel.task_s": total("task"),
        "parallel.build_s": total("build"),
        "obs.trace_overhead_pct": 100.0 * (traced / untraced - 1.0),
        "obs.span_accounted_frac": accounted / traced_wall,
    }


def traced_run(workload, seconds: float, chrome_path: str):
    """The traced run: ``(passes, per-layer metrics, problems)``."""
    profiler = profiling.SpanProfiler()

    def traced_op():
        start = time.perf_counter()
        with profiling.attached(profiler), profiler.span(
            "op", category="bench", workload=workload.name
        ):
            sample = workload.inline_op()
        sample.wall_s = time.perf_counter() - start
        return sample

    ops = {"op": workload.op, "inline": workload.inline_op, "traced": traced_op}
    names = workload.traced_passes
    passes = {name: timed_loop(ops[name], seconds / len(names)) for name in names}
    profiler.close()

    spans = index_spans(profiler.roots)
    metrics = {name: 0.0 for name in load_spec()["per_layer"]}
    metrics.update(span_metrics(passes, spans, profiler.roots))
    problems = []
    if any(s.error is not None for group in passes.values() for s in group):
        problems.append("an operation failed; workload layer metrics left at 0")
    else:
        metrics.update(workload.layer_metrics(passes, spans))

    os.makedirs(os.path.dirname(chrome_path), exist_ok=True)
    profiling.write_chrome_trace(profiler, chrome_path)
    with open(chrome_path, encoding="utf-8") as stream:
        problems += profiling.check_chrome_trace(json.load(stream))
    if metrics["obs.span_accounted_frac"] < 0.99:
        problems.append(
            f"spans account for {metrics['obs.span_accounted_frac']:.4f} of the traced wall"
        )
    return passes, metrics, problems


def _check_import_location() -> None:
    """Refuse to measure any ``repro`` but the one in this checkout."""
    expected = os.path.join(ROOT, "src", "repro")
    found = os.path.dirname(os.path.abspath(repro.__file__))
    if found != expected:
        raise SystemExit(f"imported repro from {found}, expected {expected}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="bench.runner")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tmp", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--chrome", required=True)
    args = parser.parse_args(argv)

    _check_import_location()
    workload = WORKLOADS[args.workload](args.seed, args.tmp)
    setups = [workload.setup() for _ in range(1 if args.trace else workload.setup_reps)]
    problems: list[str] = []
    if args.trace:
        passes, metrics, problems = traced_run(workload, args.seconds, args.chrome)
    else:
        passes = {"op": timed_loop(workload.op, args.seconds)}
        done = [s for s in passes["op"] if s.error is None] or passes["op"]
        metrics = {
            "wall_s": statistics.median(s.wall_s for s in done),
            "cpu_s": statistics.median(s.cpu_s for s in done),
            "setup_s": statistics.median(setups),
        }

    pins = load_pins(args.workload, args.seed)
    samples = [sample for group in passes.values() for sample in group]
    attempted, failed, observed = count_failures(samples, pins)
    for problem in problems:
        print(f"bench: {problem}", file=sys.stderr)
    # Metrics that BENCHMARK.json cannot hold: failed_frac is 0 on a good
    # run, and sim_requests_per_s does not exist on paper_all.
    more = {"failed_frac": {"value": failed / attempted, "unit": "ratio"}}
    requests = workload.simulated_requests()
    if requests and not args.trace:
        more["sim_requests_per_s"] = {"value": requests / metrics["wall_s"], "unit": "req/s"}
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "context": {
            "workload": args.workload,
            "seed": args.seed,
            "digest_checked": pins is not None,
            "metrics": more,
            "operations": {name: len(group) for name, group in passes.items()},
            "op_wall_s": {name: [s.wall_s for s in group] for name, group in passes.items()},
            "setup_samples_s": setups,
            "trace_fingerprints": workload.fingerprints(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
        },
        "digests": observed,
    }
    with open(args.out, "w", encoding="utf-8") as stream:
        json.dump(result, stream)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
