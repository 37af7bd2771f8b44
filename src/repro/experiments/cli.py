"""Command-line runner for the table/figure reproductions.

Examples::

    python -m repro.experiments --list
    python -m repro.experiments figure8 table6
    python -m repro.experiments --all
    python -m repro.experiments figure2 --scale 0.002 --seed 7
    python -m repro.experiments --all --jobs 4 --trace-cache ~/.cache/repro-traces

Experiments run across one worker process per CPU this process may use
(``os.sched_getaffinity``, else ``os.cpu_count()``); ``--jobs N`` caps that
at N and ``--jobs 1`` runs them one after another in this process.  The
run starts no more workers than it has work units: an experiment and the
experiments that read its run-scoped memo (``table6`` and ``figure10``
read ``figure8``'s, ``figure11`` reads ``figure10``'s) form one unit, so
no result is computed twice, and units start heaviest first.  The
``decompose``, ``timeline`` and ``profile`` verbs run in one process
unless ``--jobs`` is given (on ``decompose``/``timeline`` it needs
``--shards``).  ``--trace-cache DIR`` persists generated traces
content-addressed on disk so later runs (and sibling workers) reload
instead of regenerating.  Both change only wall-clock: results and exports
are identical for any job count, and the run summary printed at the end
shows per-stage timings plus the trace-cache counters (a warm-cache run
reports ``trace generations this run: 0``).

Every command -- the experiments and the ``decompose``/``timeline``/
``profile`` verbs alike -- simulates with the library default
``engine="auto"``: the columnar kernels of :mod:`repro.sim.fastpath`
wherever one exists, the per-request reference loop otherwise.  The two
produce byte-identical metrics, so no option selects between them; the
reference loop is the oracle of the parity tests and ``python -m
repro.audit``.
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.common.timing import Stopwatch, format_seconds
from repro.experiments.registry import all_experiments, get_experiment
from repro.runner.parallel import run_experiments
from repro.sim.config import default_config


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "experiments", nargs="*",
        help="experiment names to run (an optional leading 'run' verb is "
        "accepted: 'python -m repro.experiments run figure8'; the "
        "'decompose' verb instead renders the latency-decomposition "
        "table for the standard architectures over one trace; the "
        "'timeline' verb runs them with telemetry attached and exports "
        "per-bin time-series rows plus a hit-rate-vs-time chart; the "
        "'profile' verb runs the comparison with the host-time span "
        "profiler attached and writes a Chrome-trace/Perfetto JSON plus "
        "a self-time table)",
    )
    parser.add_argument("--list", action="store_true", help="list experiment names")
    parser.add_argument("--all", action="store_true", help="run every experiment")
    parser.add_argument(
        "--scale", type=float, default=None, help="trace scale override (e.g. 0.002)"
    )
    parser.add_argument("--seed", type=int, default=None, help="root seed override")
    parser.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="most worker processes to run experiments across (default: "
        "one per CPU this process may use; 1 runs them in this process).  "
        "The verbs run in one process unless it is given; on "
        "'decompose'/'timeline' it needs --shards",
    )
    parser.add_argument(
        "--trace-cache", default=None, metavar="DIR",
        help="content-addressed on-disk trace store; traces found there are "
        "reloaded instead of regenerated, fresh ones are persisted",
    )
    parser.add_argument(
        "--chart", action="store_true",
        help="also render an ASCII chart for experiments that define one",
    )
    parser.add_argument(
        "--profile", default=None,
        help="workload profile for single-trace experiments "
        "(dec/berkeley/prodigy; experiments that sweep all traces ignore it)",
    )
    parser.add_argument(
        "--export-dir", default=None,
        help="also write each result as <dir>/<experiment>.json and .csv",
    )
    parser.add_argument(
        "--journeys", default=None, metavar="OUT.jsonl",
        help="with the 'decompose' verb: also stream every measured "
        "request's hop ledger to OUT.jsonl (one JSON object per request)",
    )
    parser.add_argument(
        "--timeline", default=None, metavar="OUT.jsonl",
        help="with the 'timeline' verb: write per-bin telemetry rows to "
        "this file (JSONL, or CSV when the name ends in .csv; default "
        "timeline.jsonl)",
    )
    parser.add_argument(
        "--bin", type=float, default=3600.0, metavar="SECONDS",
        help="timeline bin width in simulated seconds (default 3600 = 1 h)",
    )
    parser.add_argument(
        "--prometheus", default=None, metavar="OUT.prom",
        help="with the 'timeline' verb: also write the final metrics "
        "registry as a Prometheus text exposition",
    )
    parser.add_argument(
        "--policy", default=None, metavar="MAP",
        help="with the 'decompose'/'timeline'/'profile' verbs: per-level replacement "
        "policies, e.g. 'l1=lfu,l2=lru,l3=random' or a bare 'lfu' for every "
        "level ('random' accepts a seed: 'random:7').  Implies the "
        "space-constrained capacities (policies only differ under "
        "capacity pressure; the default run is unbounded).  Hint-style "
        "architectures store data only at L1, so their cells use the l1 "
        "entry and ignore l2/l3",
    )
    parser.add_argument(
        "--shards", type=int, default=None, metavar="N",
        help="with the 'decompose'/'timeline' verbs: partition the object "
        "space across N shard engines (each owns a contiguous range of a "
        "fixed set of virtual partitions; combine with --jobs to run "
        "shards in parallel).  Sharded numbers equal the unsharded run's "
        "up to float rounding, for any N; a run they would not equal, "
        "such as one with --policy (bounded caches), is refused.  An "
        "explicit '--shards 1' still runs the sharded engine, so its "
        "output diffs clean against any other shard count",
    )
    parser.add_argument(
        "--out", default=None, metavar="OUT.json",
        help="with the 'profile' verb: Chrome-trace/Perfetto JSON output "
        "path (default profile.json; open at https://ui.perfetto.dev or "
        "chrome://tracing)",
    )
    parser.add_argument(
        "--memory", action="store_true",
        help="with the 'profile' verb: sample tracemalloc net/peak "
        "allocations and peak RSS per span (roughly doubles allocation "
        "cost while attached)",
    )
    parser.add_argument(
        "--sim-track", action="store_true",
        help="with the 'profile' verb: lay a simulated-time timeline track "
        "(one lane per architecture, --bin wide bins) beside the "
        "host-time tracks, so one trace shows both clocks",
    )
    return parser


#: Command-specific flags (argparse ``dest``) and the commands that take
#: them: a verb, or ``None`` for a run of named experiments.  ``main``
#: refuses any of them on another command before it dispatches, rather
#: than let that command ignore it.
_VERB_FLAGS = {
    "export_dir": (None,),
    "all": (None,),
    "list": (None,),
    "chart": (None, "timeline"),
    "bin": ("timeline", "profile"),
    "out": ("profile",),
    "memory": ("profile",),
    "sim_track": ("profile",),
    "journeys": ("decompose",),
    "timeline": ("timeline",),
    "prometheus": ("timeline",),
    "policy": ("decompose", "timeline", "profile"),
    "shards": ("decompose", "timeline"),
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # "run" is accepted as an optional leading verb ("repro.experiments run
    # figure8"); "run" itself is not an experiment name, so this is never
    # ambiguous.
    if args.experiments and args.experiments[0] == "run":
        args.experiments = args.experiments[1:]
    verbs = {"decompose": _run_decompose, "timeline": _run_timeline, "profile": _run_profile}
    verb = args.experiments[0] if args.experiments else None
    if verb not in verbs:
        verb = None
    for dest, takers in _VERB_FLAGS.items():
        if getattr(args, dest) != parser.get_default(dest) and verb not in takers:
            flag = "--" + dest.replace("_", "-")
            verbs = " or ".join(f"'{taker}'" for taker in takers if taker is not None)
            wording = [f"the {verbs} verb"] if verbs else []
            if None in takers:
                wording.insert(0, "a run of experiments")
            print(f"{flag} requires {' or '.join(wording)}", file=sys.stderr)
            return 2
    if args.jobs is not None and args.jobs < 1:
        print(f"--jobs must be at least 1, got {args.jobs}", file=sys.stderr)
        return 2
    if (
        verb in ("decompose", "timeline")
        and args.jobs is not None
        and args.shards is None
    ):
        print(f"--jobs requires --shards with the '{verb}' verb", file=sys.stderr)
        return 2
    if args.jobs is None:
        args.jobs = 1 if verb is not None else _usable_cpus()
    if verb is not None:
        if args.experiments[1:]:
            print(f"'{verb}' takes no experiment names", file=sys.stderr)
            return 2
        return verbs[verb](args)
    if args.list:
        for name in all_experiments():
            print(name)
        return 0

    names = all_experiments() if args.all else args.experiments
    if not names:
        print("nothing to run; use --list, --all, or name experiments", file=sys.stderr)
        return 2

    config = _config(args)
    status = 0
    runnable = []
    for name in names:
        try:
            get_experiment(name)
        except KeyError as exc:
            print(exc, file=sys.stderr)
            status = 2
            continue
        if name not in runnable:  # each experiment runs once per invocation
            runnable.append(name)
    if not runnable:
        return status

    def announce(timings):
        # Live status on stderr (results print to stdout, in order, below).
        print(
            f"[{timings.experiment} finished in {format_seconds(timings.total_s)}]",
            file=sys.stderr,
            flush=True,
        )

    summary = run_experiments(
        runnable,
        config,
        jobs=args.jobs,
        trace_cache_dir=args.trace_cache,
        progress=announce,
        profile_name=args.profile,
    )

    from contextlib import nullcontext

    from repro.obs import profiling

    for name in runnable:
        result = summary.results[name]
        timings = next(t for t in summary.timings if t.experiment == name)
        profiler = profiling.active()
        render_span = (
            profiler.span("render", category="runner", experiment=name)
            if profiler is not None
            else nullcontext()
        )
        with render_span, Stopwatch() as render_watch:
            rendered = result.render()
            chart = result.render_chart() if args.chart else None
        timings.render_s = render_watch.elapsed
        print(rendered)
        if chart is not None:
            print()
            print(chart)
        if args.export_dir is not None:
            from repro.reporting.export import save_result

            os.makedirs(args.export_dir, exist_ok=True)
            for extension in ("json", "csv"):
                save_result(
                    result, os.path.join(args.export_dir, f"{name}.{extension}")
                )
        print(
            f"[{name} completed in {format_seconds(timings.total_s)}: "
            f"trace_gen={format_seconds(timings.trace_gen_s)} "
            f"simulate={format_seconds(timings.simulate_s)} "
            f"render={format_seconds(timings.render_s)}]"
        )
        print()

    print(summary.render())
    return status


def _usable_cpus() -> int:
    """The CPUs this process may run on: the default worker count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _config(args):
    """The default experiment config with ``--scale``/``--seed`` applied."""
    config = default_config()
    if args.scale is not None:
        config = config.with_scale(args.scale)
    if args.seed is not None:
        from dataclasses import replace

        config = replace(config, seed=args.seed)
    return config


def _verb_setup(args):
    """What every verb starts from: the config, the workload profile name
    (``--profile``, default ``dec``) and, with ``--trace-cache``, that
    store installed as the active trace cache."""
    if args.trace_cache is not None:
        from repro.runner.trace_cache import (
            TraceCache,
            get_trace_cache,
            set_trace_cache,
        )

        if get_trace_cache().directory != args.trace_cache:
            set_trace_cache(TraceCache(args.trace_cache))
    return _config(args), args.profile or "dec"


def _standard_specs(config, policy_arg):
    """The standard four as picklable
    :class:`~repro.runner.specs.ArchitectureSpec` factories, honouring a
    ``--policy`` map when given.

    Without ``--policy`` this is the historical unbounded construction
    (byte-identical results).  With it, the space-constrained capacities
    apply -- replacement policies only differ under capacity pressure, so
    an unbounded policy run would be indistinguishable from LRU -- with
    the paper's sizing: every data-hierarchy node gets ``l1_cache_bytes``
    (the Figure 8(b) uniform 5 GB, scaled) and hint-style L1 nodes get
    ``hint_data_cache_bytes``.  Hint-style architectures store data only
    at L1, so only the map's ``l1`` entry reaches them.
    """
    from repro.hierarchy.data_hierarchy import DataHierarchy
    from repro.hierarchy.directory_arch import CentralizedDirectoryArchitecture
    from repro.hierarchy.hint_hierarchy import HintHierarchy
    from repro.hierarchy.icp import IcpHierarchy
    from repro.netmodel.testbed import TestbedCostModel
    from repro.runner.specs import ArchitectureSpec

    data_kwargs: dict = {}
    hint_kwargs: dict = {}
    if policy_arg is not None:
        from repro.cache.policy import parse_policy_map

        policies = parse_policy_map(policy_arg)
        data_kwargs = dict(
            l1_bytes=config.l1_cache_bytes,
            l2_bytes=config.l1_cache_bytes,
            l3_bytes=config.l1_cache_bytes,
            l1_policy=policies.get("l1"),
            l2_policy=policies.get("l2"),
            l3_policy=policies.get("l3"),
        )
        hint_kwargs = dict(
            l1_bytes=config.hint_data_cache_bytes, l1_policy=policies.get("l1")
        )
    shared = (config.topology, TestbedCostModel())
    return [
        ArchitectureSpec(DataHierarchy, shared, data_kwargs),
        ArchitectureSpec(IcpHierarchy, shared, data_kwargs),
        ArchitectureSpec(HintHierarchy, shared, hint_kwargs),
        ArchitectureSpec(CentralizedDirectoryArchitecture, shared, hint_kwargs),
    ]


def _sharded_comparison(args, config, profile_name, specs, timeline_dir=None):
    """Run ``specs`` under ``--shards`` and return the ShardedComparison.

    Raises ValueError for an invalid shard plan (shards < 1) or a
    configuration a sharded run would not reproduce exactly (``--policy``
    bounds the caches) -- callers turn that into a usage error.
    """
    from repro.runner.sharding import run_comparison_sharded

    return run_comparison_sharded(
        config.profile(profile_name),
        config.seed,
        specs,
        shards=args.shards,
        jobs=args.jobs,
        trace_cache_dir=args.trace_cache,
        timeline_dir=timeline_dir,
        timeline_bin_s=args.bin,
    )


def _shard_summary_line(comparison) -> str:
    plan = comparison.plan
    return (
        f"[{plan.shards} shard(s) over {plan.virtual_partitions} virtual "
        f"partitions: {sum(comparison.partition_objects)} distinct "
        f"partition objects, fullest shard holds "
        f"{comparison.max_shard_objects}, wall "
        f"{format_seconds(comparison.wall_s)}]"
    )


def _run_profile(args) -> int:
    """The ``profile`` verb: the standard comparison under the span profiler.

    Runs the standard four architectures through
    :func:`~repro.runner.parallel.run_comparison_parallel` with a
    :class:`~repro.obs.profiling.SpanProfiler` attached, writes the span
    forest as Chrome-trace/Perfetto JSON (``--out``, default
    ``profile.json``), and prints the comparison table plus the
    self-time/cumulative-time table.  The table footer reconciles
    span-accounted time against the run's wall-clock (within 1%: every
    instrumented region is a child of the root span).  ``--memory`` adds
    tracemalloc/RSS sampling, ``--sim-track`` lays the simulated-time
    timeline beside the host tracks, ``--jobs N`` profiles the worker
    fan-out (one Perfetto process track per worker pid).
    """
    import tempfile

    from repro.obs import profiling
    from repro.reporting.tables import format_comparison_table
    from repro.runner.parallel import run_comparison_parallel

    if args.bin <= 0:
        print(f"--bin must be positive, got {args.bin}", file=sys.stderr)
        return 2
    config, profile_name = _verb_setup(args)
    try:
        specs = _standard_specs(config, args.policy)
    except ValueError as exc:
        print(f"--policy: {exc}", file=sys.stderr)
        return 2
    out_path = args.out if args.out is not None else "profile.json"
    profiler = profiling.SpanProfiler(memory=args.memory)
    with tempfile.TemporaryDirectory(prefix="repro-profile-") as scratch:
        timeline_dir = os.path.join(scratch, "timeline") if args.sim_track else None
        with profiling.attached(profiler), Stopwatch() as wall:
            with profiler.span(
                "profile_run",
                category="cli",
                profile=profile_name,
                jobs=args.jobs,
            ):
                results = run_comparison_parallel(
                    config.profile(profile_name),
                    config.seed,
                    specs,
                    jobs=args.jobs,
                    trace_cache_dir=args.trace_cache,
                    timeline_dir=timeline_dir,
                    timeline_bin_s=args.bin,
                    profile_memory=args.memory,
                )
        sim_rows = None
        if timeline_dir is not None:
            from repro.obs.export import read_timeline_jsonl

            sim_rows = []
            for name in results:
                sim_rows.extend(
                    read_timeline_jsonl(os.path.join(timeline_dir, f"{name}.jsonl"))
                )
    profiler.close()
    profiling.write_chrome_trace(profiler, out_path, sim_rows=sim_rows)
    print(
        format_comparison_table(
            results, title=f"architecture comparison ({profile_name})"
        )
    )
    print()
    print(
        profiling.format_profile_table(
            profiling.aggregate_spans(profiler.roots),
            total_s=wall.elapsed,
            title=f"host profile ({profile_name}, jobs={args.jobs})",
        )
    )
    print(f"[chrome trace written to {out_path}; open at https://ui.perfetto.dev]")
    return 0


def _run_decompose(args) -> int:
    """The ``decompose`` verb: latency decomposition of the standard four.

    Runs the data hierarchy, ICP, hints, and the centralized directory
    over one trace and prints the per-step-kind table; with ``--journeys``
    every measured request's hop ledger streams to one JSONL file (the
    ``arch`` field distinguishes the four runs).
    """
    from repro.experiments.base import trace_for
    from repro.obs.sink import JourneySink, JsonlJourneySink
    from repro.reporting.tables import format_decomposition_table
    from repro.sim.engine import run_simulation

    config, profile_name = _verb_setup(args)
    try:
        specs = _standard_specs(config, args.policy)
    except ValueError as exc:
        print(f"--policy: {exc}", file=sys.stderr)
        return 2
    if args.shards is not None:
        if args.journeys is not None:
            print("--journeys is not supported with --shards", file=sys.stderr)
            return 2
        try:
            comparison = _sharded_comparison(args, config, profile_name, specs)
        except ValueError as exc:
            print(f"--shards: {exc}", file=sys.stderr)
            return 2
        print(
            format_decomposition_table(
                comparison.results,
                title=(
                    f"latency decomposition ({profile_name}, "
                    f"{comparison.plan.shards} shards, mean ms/request)"
                ),
            )
        )
        print(_shard_summary_line(comparison))
        return 0
    trace = trace_for(config, profile_name)
    sink = (
        JsonlJourneySink(args.journeys) if args.journeys is not None else JourneySink()
    )
    results = {}
    with sink:
        # One architecture alive at a time: each is built, run and
        # dropped before the next is built.
        for spec in specs:
            architecture = spec.build()
            sink.architecture = architecture.name
            results[architecture.name] = run_simulation(
                trace, architecture, journey_sink=sink
            )
            del architecture
    print(
        format_decomposition_table(
            results,
            title=f"latency decomposition ({profile_name}, mean ms/request)",
        )
    )
    if args.journeys is not None:
        print(f"[journeys written to {args.journeys}]")
    return 0


def _run_timeline(args) -> int:
    """The ``timeline`` verb: the standard four with telemetry attached.

    Runs each architecture with a :class:`repro.obs.telemetry.RunTelemetry`
    sampling one shared registry into fixed-width simulated-time bins,
    writes the per-bin rows (``--timeline``, JSONL or CSV), optionally the
    final registry as a Prometheus exposition (``--prometheus``), and
    prints the comparison table, per-architecture warmup-convergence
    lines, and a hit-rate-vs-time chart.
    """
    from repro.experiments.base import trace_for
    from repro.obs.export import (
        prometheus_text,
        write_timeline_csv,
        write_timeline_jsonl,
    )
    from repro.obs.telemetry import MetricsRegistry, RunTelemetry, warmup_convergence
    from repro.reporting.tables import format_comparison_table
    from repro.reporting.timeline import render_hit_rate_chart, render_occupancy_chart
    from repro.sim.engine import run_simulation

    if args.bin <= 0:
        print(f"--bin must be positive, got {args.bin}", file=sys.stderr)
        return 2
    config, profile_name = _verb_setup(args)
    try:
        specs = _standard_specs(config, args.policy)
    except ValueError as exc:
        print(f"--policy: {exc}", file=sys.stderr)
        return 2
    shard_note = None
    if args.shards is not None:
        import tempfile

        if args.prometheus is not None:
            print(
                "--prometheus is not supported with --shards (no shared "
                "registry across shard engines)",
                file=sys.stderr,
            )
            return 2
        try:
            with tempfile.TemporaryDirectory(prefix="repro-shards-") as scratch:
                comparison = _sharded_comparison(
                    args, config, profile_name, specs, timeline_dir=scratch
                )
        except ValueError as exc:
            print(f"--shards: {exc}", file=sys.stderr)
            return 2
        results = comparison.results
        rows = []
        for name in results:
            rows.extend(comparison.timeline_rows[name])
        shard_note = _shard_summary_line(comparison)
    else:
        trace = trace_for(config, profile_name)
        architectures = [spec.build() for spec in specs]
        registry = MetricsRegistry()
        results = {}
        rows = []
        for architecture in architectures:
            telemetry = RunTelemetry(registry, bin_s=args.bin)
            results[architecture.name] = run_simulation(
                trace, architecture, telemetry=telemetry
            )
            rows.extend(telemetry.rows)
    out_path = args.timeline if args.timeline is not None else "timeline.jsonl"
    if out_path.endswith(".csv"):
        write_timeline_csv(rows, out_path)
    else:
        write_timeline_jsonl(rows, out_path)
    if args.prometheus is not None:
        with open(args.prometheus, "w", encoding="utf-8") as stream:
            stream.write(prometheus_text(registry))
    print(
        format_comparison_table(
            results, title=f"architecture comparison ({profile_name})"
        )
    )
    print()
    for name in results:
        arch_rows = [row for row in rows if row["arch"] == name]
        print(warmup_convergence(arch_rows).summary_line())
    print()
    print(render_hit_rate_chart(rows))
    if args.chart:
        print()
        print(render_occupancy_chart(rows))
    if shard_note is not None:
        print(shard_note)
    print(f"[timeline rows written to {out_path}]")
    if args.prometheus is not None:
        print(f"[prometheus exposition written to {args.prometheus}]")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
