"""Process-pool execution of experiments and architecture comparisons.

Work units follow the ``(experiment, trace, architecture)`` decomposition:

* :func:`run_experiments` fans work units out -- an experiment together
  with the experiments that read its run-scoped memo
  (:func:`repro.experiments.registry.work_units`), heaviest unit first --
  which is the coarse grain that parallelizes the registry-wide ``--all``
  run;
* :func:`run_comparison_parallel` fans the architectures of one comparison
  out -- each ``(trace, architecture)`` simulation is independent because
  architectures never share state and traces are shared read-only.

Workers never receive constructed architectures or generated traces.  They
receive **factory specs** (:class:`~repro.runner.specs.ArchitectureSpec`)
and ``(profile, seed)`` trace addresses, and rebuild both locally: fresh
architecture state preserves the freshness invariant
:func:`repro.sim.engine.run_comparison` enforces, and the worker-local
:class:`~repro.runner.trace_cache.TraceCache` (pointed at a shared on-disk
store when one is configured) keeps each distinct trace generated at most
once per worker -- or, with a warm store, zero times anywhere.

Determinism: a work unit's output depends only on its arguments, never on
scheduling, so ``jobs=N`` and ``jobs=1`` produce identical results; only
wall-clock differs, and results carry none of it: stage timings travel
beside them (:class:`StageTimings`), never in their notes.
"""

from __future__ import annotations

import inspect
import os
from concurrent.futures import ProcessPoolExecutor, as_completed
from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING, Callable, Sequence

from repro.common.timing import Stopwatch, format_seconds
from repro.obs import profiling
from repro.runner.specs import ArchitectureSpec
from repro.runner.trace_cache import (
    TraceCache,
    TraceCacheStats,
    cached_trace,
    get_trace_cache,
    set_trace_cache,
)
from repro.sim.engine import run_simulation
from repro.sim.metrics import SimMetrics
from repro.traces.profiles import WorkloadProfile

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.experiments.base import ExperimentResult
    from repro.faults.events import FaultPlan
    from repro.sim.config import ExperimentConfig


@dataclass
class StageTimings:
    """Per-stage wall-clock for one experiment run.

    ``simulate_s`` is everything inside ``run()`` that is not trace
    generation (dominated by the per-request simulation loops);
    ``render_s`` is filled in by the CLI after rendering the result.
    """

    experiment: str
    total_s: float
    trace_gen_s: float
    simulate_s: float
    render_s: float | None = None
    cache: TraceCacheStats = field(default_factory=TraceCacheStats)

    def as_row(self) -> dict:
        return {
            "experiment": self.experiment,
            "total": format_seconds(self.total_s),
            "trace_gen": format_seconds(self.trace_gen_s),
            "simulate": format_seconds(self.simulate_s),
            "trace_generations": self.cache.generations,
        }


@dataclass
class RunSummary:
    """Everything a multi-experiment run produced, plus its instrumentation.

    Attributes:
        results: Experiment name -> result, in the order requested
            (identical for any ``jobs``).
        timings: Per-experiment stage timings, same order.
        cache_stats: Trace-cache counters aggregated across every process
            that participated in the run.  ``cache_stats.generations == 0``
            is the warm-cache proof the acceptance check looks for.
        jobs: Worker processes used (1 = in-process sequential).
        wall_s: End-to-end wall-clock for the whole run.
    """

    results: dict[str, "ExperimentResult"]
    timings: list[StageTimings]
    cache_stats: TraceCacheStats
    jobs: int
    wall_s: float

    def render(self) -> str:
        """The run summary block printed after a CLI run."""
        from repro.reporting.tables import format_table

        lines = [
            format_table(
                [t.as_row() for t in self.timings],
                title=f"run summary ({self.jobs} job{'s' if self.jobs != 1 else ''})",
            ),
            f"wall-clock: {format_seconds(self.wall_s)} "
            f"(sum of experiment time {format_seconds(sum(t.total_s for t in self.timings))})",
            self.cache_stats.describe(),
            f"trace generations this run: {self.cache_stats.generations}",
        ]
        return "\n".join(lines)


def _worker_init(cache_directory: str | None) -> None:
    """Give each worker its own trace cache over the shared disk store."""
    set_trace_cache(TraceCache(cache_directory))


def _run_experiment_task(
    name: str, config: "ExperimentConfig | None", profile_name: str | None = None
) -> tuple[str, "ExperimentResult", StageTimings]:
    """One experiment work unit (runs in a worker or inline for jobs=1).

    ``profile_name`` reaches only experiments whose ``run`` takes it;
    those that sweep every workload profile run as they would without it.
    """
    # Imported lazily: the registry pulls in every experiment module, and
    # experiments.base imports this package's trace cache.
    from repro.experiments.registry import get_experiment

    run = get_experiment(name)
    if profile_name is not None and "profile_name" in inspect.signature(run).parameters:
        run = partial(run, profile_name=profile_name)
    cache = get_trace_cache()
    before = cache.stats.snapshot()
    profiler = profiling.active()
    span = (
        profiler.span("experiment", category="runner", experiment=name)
        if profiler is not None
        else nullcontext()
    )
    with span, Stopwatch() as stopwatch:
        result = run(config)
    delta = cache.stats.since(before)
    timings = StageTimings(
        experiment=name,
        total_s=stopwatch.elapsed,
        trace_gen_s=delta.generation_seconds,
        simulate_s=max(0.0, stopwatch.elapsed - delta.generation_seconds),
        cache=delta,
    )
    return name, result, timings


def _run_unit_task(
    names: list[str], config: "ExperimentConfig | None", profile_name: str | None
) -> list[tuple[str, "ExperimentResult", StageTimings]]:
    """One work unit: its experiments in order, in one process, so each
    reader finds its producer's memo entries."""
    return [_run_experiment_task(name, config, profile_name) for name in names]


def run_experiments(
    names: Sequence[str],
    config: "ExperimentConfig | None" = None,
    *,
    jobs: int = 1,
    trace_cache_dir: str | None = None,
    progress: Callable[[StageTimings], None] | None = None,
    profile_name: str | None = None,
) -> RunSummary:
    """Run several experiments, optionally across worker processes.

    Args:
        names: Experiment names from the registry, reported in this
            order (an inline run also runs them in it).
        config: Shared experiment config (None = each run defaults it).
        jobs: Most worker processes to start.  The run starts one per
            work unit up to ``jobs``; with a single worker it runs inline
            in this process, in ``names`` order.
        trace_cache_dir: On-disk trace store shared by every participating
            process.  An inline run (re)installs the process-wide active
            cache pointed at the store.
        progress: Called with each experiment's :class:`StageTimings` as it
            completes -- in parallel, a unit's experiments as the unit
            finishes, so not in input order.  The CLI streams status lines
            from this.
        profile_name: Workload profile for the experiments whose ``run``
            takes a ``profile_name`` keyword (the CLI's ``--profile``);
            the others ignore it.

    Raises ``KeyError`` for an unknown name before anything runs, and
    otherwise whatever the first failing experiment raised; sibling work
    units already running are allowed to finish, queued ones are
    cancelled.
    """
    # Imported lazily: the registry pulls in every experiment module, and
    # experiments.base imports this package's trace cache.
    from repro.experiments.registry import work_units

    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    names = list(dict.fromkeys(names))
    units = work_units(names)
    workers = min(jobs, len(units))
    if trace_cache_dir is not None and (
        workers == 1 and get_trace_cache().directory != trace_cache_dir
    ):
        set_trace_cache(TraceCache(trace_cache_dir))

    outcomes: dict[str, tuple["ExperimentResult", StageTimings]] = {}

    def finished(unit: list[tuple[str, "ExperimentResult", StageTimings]]) -> None:
        for name, result, timings in unit:
            outcomes[name] = (result, timings)
            if progress is not None:
                progress(timings)

    with Stopwatch() as stopwatch:
        if workers == 1:
            for name in names:
                finished([_run_experiment_task(name, config, profile_name)])
        else:
            with ProcessPoolExecutor(
                max_workers=workers,
                initializer=_worker_init,
                initargs=(trace_cache_dir,),
            ) as pool:
                # The pool hands queued units out in submission order.
                futures = [
                    pool.submit(_run_unit_task, unit, config, profile_name)
                    for unit in units
                ]
                try:
                    for future in as_completed(futures):
                        finished(future.result())
                except BaseException:
                    for future in futures:
                        future.cancel()
                    raise

    results = {name: outcomes[name][0] for name in names}
    timings = [outcomes[name][1] for name in names]
    totals = TraceCacheStats()
    for timing in timings:
        totals.merge(timing.cache)
    return RunSummary(
        results=results,
        timings=timings,
        cache_stats=totals,
        jobs=workers,
        wall_s=stopwatch.elapsed,
    )


def _comparison_task(
    profile: WorkloadProfile,
    seed: int,
    spec: ArchitectureSpec,
    warmup_s: float | None,
    fault_plan: "FaultPlan | None" = None,
    journey_dir: str | None = None,
    include_uncachable: bool = False,
    timeline_dir: str | None = None,
    timeline_bin_s: float = 3600.0,
    engine: str = "auto",
    profiled: bool = False,
    profile_memory: bool = False,
) -> tuple[SimMetrics, "profiling.ProfileShard | None"]:
    """One (trace, architecture) simulation work unit.

    With ``journey_dir`` set, the unit also streams its journeys to
    ``<journey_dir>/<architecture>.jsonl``; with ``timeline_dir`` set it
    writes per-bin telemetry rows to ``<timeline_dir>/<architecture>.jsonl``.
    Each file is written whole by whichever process runs this unit and its
    contents are a pure function of the unit's arguments, so the exports
    are identical for any ``jobs``.

    With ``profiled`` the unit records a ``task`` span tree: into the
    already-attached profiler when one exists (the ``jobs=1`` coordinator),
    else into a worker-local :class:`~repro.obs.profiling.SpanProfiler`
    whose forest ships back as the returned
    :class:`~repro.obs.profiling.ProfileShard` (``None`` otherwise --
    profiling never changes the metrics, only this side channel).
    """
    own: "profiling.SpanProfiler | None" = None
    if profiled and profiling.active() is None:
        own = profiling.SpanProfiler(memory=profile_memory)
        profiling.attach(own)
    try:
        profiler = profiling.active() if profiled else None
        span = (
            profiler.span("task", category="runner")
            if profiler is not None
            else nullcontext()
        )
        with span as task_span:
            metrics = _comparison_task_body(
                profile,
                seed,
                spec,
                warmup_s,
                fault_plan,
                journey_dir,
                include_uncachable,
                timeline_dir,
                timeline_bin_s,
                engine,
            )
            if task_span is not None:
                task_span.attrs["arch"] = metrics.architecture
    finally:
        if own is not None:
            profiling.detach()
            own.close()
    return metrics, (own.shard() if own is not None else None)


def _comparison_task_body(
    profile: WorkloadProfile,
    seed: int,
    spec: ArchitectureSpec,
    warmup_s: float | None,
    fault_plan: "FaultPlan | None",
    journey_dir: str | None,
    include_uncachable: bool,
    timeline_dir: str | None,
    timeline_bin_s: float,
    engine: str,
) -> SimMetrics:
    profiler = profiling.active()
    if profiler is None:
        trace = cached_trace(profile, seed)
        architecture = spec.build()
    else:
        # ``trace_fetch`` exists whatever the cache state (memo hit, disk
        # hit, or generation -- the latter adds a ``trace_gen`` child), so
        # the span *structure* is identical at any jobs value once the
        # store is warm.
        with profiler.span("trace_fetch", category="runner") as span:
            trace = cached_trace(profile, seed)
            span.attrs["requests"] = len(trace.requests)
        with profiler.span("build", category="runner"):
            architecture = spec.build()
    telemetry = None
    if timeline_dir is not None:
        from repro.obs.telemetry import RunTelemetry

        telemetry = RunTelemetry(bin_s=timeline_bin_s)
    if journey_dir is None:
        metrics = run_simulation(
            trace,
            architecture,
            warmup_s=warmup_s,
            include_uncachable=include_uncachable,
            fault_plan=fault_plan,
            telemetry=telemetry,
            engine=engine,
        )
    else:
        from repro.obs.sink import JsonlJourneySink

        path = os.path.join(journey_dir, f"{architecture.name}.jsonl")
        with JsonlJourneySink(path, architecture=architecture.name) as sink:
            metrics = run_simulation(
                trace,
                architecture,
                warmup_s=warmup_s,
                include_uncachable=include_uncachable,
                fault_plan=fault_plan,
                journey_sink=sink,
                telemetry=telemetry,
                engine=engine,
            )
    if telemetry is not None:
        from repro.obs.export import write_timeline_jsonl

        export_span = (
            profiler.span("export", category="runner")
            if profiler is not None
            else nullcontext()
        )
        with export_span:
            write_timeline_jsonl(
                telemetry.rows,
                os.path.join(timeline_dir, f"{architecture.name}.jsonl"),
            )
    return metrics


def run_comparison_parallel(
    profile: WorkloadProfile,
    seed: int,
    specs: Sequence[ArchitectureSpec],
    *,
    jobs: int = 1,
    warmup_s: float | None = None,
    include_uncachable: bool = False,
    trace_cache_dir: str | None = None,
    fault_plan: "FaultPlan | None" = None,
    journey_dir: str | None = None,
    timeline_dir: str | None = None,
    timeline_bin_s: float = 3600.0,
    engine: str = "auto",
    profile_memory: bool = False,
) -> dict[str, SimMetrics]:
    """Parallel twin of :func:`repro.sim.engine.run_comparison`.

    Takes the trace's ``(profile, seed)`` address instead of a generated
    trace, and factory specs instead of constructed architectures, so the
    expensive objects are built where they are used.  Results are keyed by
    architecture name in spec order, exactly like ``run_comparison``.

    Every spec runs as one work unit that builds its architecture, runs
    it and drops it.  At ``jobs=1`` the units run in turn in this
    process, so one architecture is alive at a time: a finished
    architecture and its caches are freed before the next is built.

    ``fault_plan`` (a pure value, picklable) rides along to every worker;
    each architecture's simulation replays it with a fresh injector, so
    faulted comparisons are as deterministic -- and as jobs-invariant --
    as clean ones.  ``include_uncachable`` forwards to every simulation,
    matching the serial comparison's knob.

    ``journey_dir`` enables structured trace export: each architecture's
    journeys land in ``<journey_dir>/<name>.jsonl`` (directory created if
    needed), written entirely by the process that ran that architecture --
    no cross-process interleaving, so each file is byte-identical for any
    ``jobs`` value.  ``timeline_dir`` does the same for telemetry: the
    unit attaches a fresh :class:`repro.obs.telemetry.RunTelemetry`
    (``timeline_bin_s``-wide bins) and writes the per-bin rows to
    ``<timeline_dir>/<name>.jsonl`` as canonical JSONL -- rows are a pure
    function of (trace, architecture, plan), so these files too are
    byte-identical for any ``jobs`` value.

    ``engine`` (default ``"auto"``) forwards to every
    :func:`~repro.sim.engine.run_simulation`; since the fast engine is
    metric-identical to the reference, results stay jobs- *and*
    engine-invariant.  ``engine="fast"`` with an architecture that has
    no vectorized kernel raises the same clean :class:`ValueError` the
    serial path raises -- checked
    up front, before any worker process is spawned, so the failure never
    surfaces as an opaque in-worker traceback.

    When a :mod:`repro.obs.profiling` profiler is attached in the calling
    process, the comparison records a ``comparison`` span with one
    ``task`` subtree per architecture: recorded inline at ``jobs=1``,
    shipped back as :class:`~repro.obs.profiling.ProfileShard` values and
    re-parented (on worker pids) at ``jobs>1`` -- same tree shape either
    way, which the jobs-invariance pin checks.  ``profile_memory``
    forwards memory sampling to profiled workers.  Metrics are unchanged
    by profiling; with no profiler attached this path is byte-identical
    to before.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    if engine == "fast":
        # Pre-flight: building a spec is cheap (empty caches), and doing
        # it here turns an in-worker crash into the serial path's error.
        from repro.sim.fastpath import fast_unsupported_reason

        for spec in specs:
            reason = fast_unsupported_reason(spec.build())
            if reason is not None:
                raise ValueError(reason)
    if journey_dir is not None:
        os.makedirs(journey_dir, exist_ok=True)
    if timeline_dir is not None:
        os.makedirs(timeline_dir, exist_ok=True)
    profiler = profiling.active()
    profiled = profiler is not None
    comparison_span = (
        profiler.span("comparison", category="runner", jobs=jobs, engine=engine)
        if profiled
        else nullcontext()
    )
    with comparison_span as parent:
        if jobs == 1:
            outcomes = [
                _comparison_task(
                    profile,
                    seed,
                    spec,
                    warmup_s,
                    fault_plan,
                    journey_dir,
                    include_uncachable,
                    timeline_dir,
                    timeline_bin_s,
                    engine,
                    profiled,
                    profile_memory,
                )
                for spec in specs
            ]
        else:
            with ProcessPoolExecutor(
                max_workers=jobs, initializer=_worker_init, initargs=(trace_cache_dir,)
            ) as pool:
                futures = [
                    pool.submit(
                        _comparison_task,
                        profile,
                        seed,
                        spec,
                        warmup_s,
                        fault_plan,
                        journey_dir,
                        include_uncachable,
                        timeline_dir,
                        timeline_bin_s,
                        engine,
                        profiled,
                        profile_memory,
                    )
                    for spec in specs
                ]
                outcomes = [future.result() for future in futures]
        metrics = []
        for item, shard in outcomes:
            metrics.append(item)
            if shard is not None and profiler is not None:
                profiler.adopt(shard, parent=parent)
    results: dict[str, SimMetrics] = {}
    for item in metrics:
        if item.architecture in results:
            raise ValueError(f"duplicate architecture name {item.architecture!r}")
        results[item.architecture] = item
    return results
