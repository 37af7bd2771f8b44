"""The four benchmark workloads.

Each workload is a closed batch loop: one operation follows another, with
no open-loop rate.  A workload object has three phases:

* :meth:`setup` -- what must exist before the timed region (trace
  generation into a fresh on-disk store plus the spec builds, or a CLI
  start-up for ``paper_all``).  Timed on its own as ``setup_s``.
* :meth:`op` -- one timed operation of the untraced pass.
* :meth:`inline_op` -- the same work in a form that runs inside this
  process, so the span profiler can record it.  For ``paper_all`` that is
  a loop over the experiment registry (``run_experiments`` crashes under
  an attached profiler); for ``sharded_timeline`` it is the ``jobs=1`` run
  (the sharded runner ships no worker spans back).

Every operation returns a :class:`Sample`: its wall and CPU time plus one
SHA-256 digest per output item (an experiment's CSV export, or one
architecture's :class:`~repro.sim.metrics.SimMetrics`).  The runner checks
the digests against each other and against the pins in ``bench/expected``.

Only public entry points are called, and no flag or keyword that the
roadmap plans to delete is passed (no ``--engine``, no ``clock_lag_s``).
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager, nullcontext

from bench import ROOT, run_reaped
from repro.cache.policy import parse_policy_map
from repro.experiments.registry import all_experiments, get_experiment
from repro.faults.events import NodeKind
from repro.faults.profile import FaultProfile
from repro.hierarchy.data_hierarchy import DataHierarchy
from repro.hierarchy.directory_arch import CentralizedDirectoryArchitecture
from repro.hierarchy.hint_hierarchy import HintHierarchy
from repro.hierarchy.icp import IcpHierarchy
from repro.netmodel.testbed import TestbedCostModel
from repro.obs import profiling
from repro.obs.export import read_timeline_jsonl
from repro.push.hierarchical import HierarchicalPushOnMiss
from repro.reporting.export import save_result
from repro.runner import sharding
from repro.runner.fingerprint import trace_fingerprint
from repro.runner.parallel import run_comparison_parallel
from repro.runner.specs import ArchitectureSpec
from repro.runner.trace_cache import TraceCache, get_trace_cache, set_trace_cache
from repro.sim.config import default_config
from repro.traces.io import read_trace

#: Trace scales: one operation takes 10 to 30 s on a 2-core box.  Each is
#: the largest at which the benchmark's runs fit its time budget on a slow
#: day (bench/README.md has the arithmetic).  The two dec workloads share
#: a scale, so ``compare_fast`` stays the unsharded reference of
#: ``sharded_timeline``.
PAPER_SCALE = 0.0002
COMPARE_SCALE = 0.01
FAULTED_SCALE = 0.02
SHARDED_SCALE = COMPARE_SCALE

#: Replacement policies of the space-constrained workload.
POLICY_MAP = "l1=lfu,l2=lru,l3=random:7"
#: Fault regime of the faulted workload: each L1 and L2 node fails every
#: three simulated days on average and is repaired within an hour.
MTBF_S = 3 * 86400.0
MTTR_S = 3600.0
SHARDS = 2
VIRTUAL_PARTITIONS = 16


@dataclasses.dataclass
class Sample:
    """One timed operation.

    Attributes:
        wall_s: Host wall-clock of the operation.
        cpu_s: User plus system CPU of this process and of the children
            it reaped during the operation.
        digests: Output item -> SHA-256 hex digest.
        error: Set when the operation raised or its command failed.
        detail: Workload-specific result kept for the per-layer metrics.
    """

    wall_s: float
    cpu_s: float
    digests: dict[str, str]
    error: str | None = None
    detail: object = None


def cpu_seconds() -> float:
    """CPU used so far by this process and every child it has reaped."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def _timed(call) -> tuple[object, float, float]:
    cpu = cpu_seconds()
    start = time.perf_counter()
    value = call()
    return value, time.perf_counter() - start, cpu_seconds() - cpu


def bench_span(name: str, **attrs):
    """A bench-side span when a profiler is attached, else a no-op context."""
    profiler = profiling.active()
    if profiler is None:
        return nullcontext()
    return profiler.span(name, category="bench", **attrs)


def seconds_per_op(spans, ops: int) -> float:
    """Summed duration of a span list, divided by the operation count."""
    return sum(span.duration_s for span in spans) / ops


# ----------------------------------------------------------------------
# digests
# ----------------------------------------------------------------------
def canonical(value):
    """A JSON-ready rendering of a result object that keeps every bit.

    Floats are written as ``float.hex``; enums by name; dataclasses field
    by field; dicts as key-sorted pairs (their keys may be enums); other
    objects, such as the latency histogram, by their instance attributes.
    """
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, enum.Enum):
        return value.name
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if dataclasses.is_dataclass(value):
        return {
            field.name: canonical(getattr(value, field.name))
            for field in dataclasses.fields(value)
        }
    if isinstance(value, dict):
        pairs = [[canonical(key), canonical(item)] for key, item in value.items()]
        return sorted(pairs, key=lambda pair: str(pair[0]))
    if isinstance(value, (list, tuple)):
        return [canonical(item) for item in value]
    return canonical(vars(value))


def metrics_digest(metrics) -> str:
    """SHA-256 of the canonical serialization of one ``SimMetrics``."""
    payload = json.dumps(canonical(metrics), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def file_digest(path: str) -> str:
    with open(path, "rb") as stream:
        return hashlib.sha256(stream.read()).hexdigest()


def _results_sample(results, wall: float, cpu: float, detail) -> Sample:
    for metrics in results.values():
        metrics.validate()
    digests = {name: metrics_digest(metrics) for name, metrics in results.items()}
    return Sample(wall, cpu, digests, detail=detail)


# ----------------------------------------------------------------------
# paper_all
# ----------------------------------------------------------------------
def run_cli(args: list[str], log_path: str) -> tuple[int, float, float]:
    """Run this checkout's ``python -m repro.experiments ARGS`` to completion.

    Returns ``(exit code, wall seconds, CPU seconds)``.  The CPU figure
    comes from ``os.wait4``, so it covers the command and every process
    it started.  Output goes to ``log_path``.
    """
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    with open(log_path, "wb") as log:
        status, wall, usage = run_reaped(
            [sys.executable, "-m", "repro.experiments", *args],
            stdout=log,
            stderr=subprocess.STDOUT,
            env=env,
        )
    if status != 0:
        with open(log_path, encoding="utf-8", errors="replace") as stream:
            sys.stderr.write("".join(stream.readlines()[-20:]))
    return status, wall, usage.ru_utime + usage.ru_stime


class PaperAll:
    """``python -m repro.experiments --all``, the paper reproduction.

    Why: it is the north-star command.  Its time is almost all the
    reference loop and per-request Python in ``hierarchy``/``hints``/
    ``cache``, so moving the experiments onto the fast engine shows here,
    and fast-engine kernel changes barely do.
    """

    name = "paper_all"
    #: Passes of a traced run: untraced in-process, then traced.
    traced_passes = ("inline", "traced")
    #: Set-ups per run (``setup_s`` is their median); a CLI start-up takes
    #: about 0.3 s and varies by half from one to the next.
    setup_reps = 9

    def __init__(self, seed: int, tmp: str, scale: float = PAPER_SCALE) -> None:
        self.seed = seed
        self.tmp = tmp
        self.scale = scale
        self.config = dataclasses.replace(default_config().with_scale(scale), seed=seed)
        self.items = all_experiments()
        self._dirs = 0

    def fingerprints(self) -> dict[str, str]:
        return {
            name: trace_fingerprint(self.config.profile(name), self.seed)
            for name in ("dec", "berkeley", "prodigy")
        }

    def simulated_requests(self) -> None:
        """Unknown: the CLI subprocess does not report its request count."""
        return None

    def _fresh_dir(self, label: str) -> str:
        self._dirs += 1
        path = os.path.join(self.tmp, f"{label}-{self._dirs}")
        os.makedirs(path)
        return path

    def setup(self) -> float:
        """Start-up cost: the wall time of ``--list``."""
        status, wall, _cpu = run_cli(["--list"], os.path.join(self.tmp, "list.log"))
        if status != 0:
            raise RuntimeError(f"--list exited with status {status}")
        return wall

    def op(self) -> Sample:
        export = self._fresh_dir("export")
        status, wall, cpu = run_cli(
            [
                "--all",
                "--scale", repr(self.scale),
                "--seed", str(self.seed),
                "--export-dir", export,
            ],
            os.path.join(export, "cli.log"),
        )
        if status != 0:
            return Sample(wall, cpu, {}, error=f"exit status {status}")
        return Sample(wall, cpu, self._csv_digests(export))

    def inline_op(self) -> Sample:
        export = self._fresh_dir("inline")

        def body():
            # A fresh trace cache, as a new CLI process starts with.
            set_trace_cache(TraceCache())
            for name in self.items:
                with bench_span("experiment", experiment=name):
                    result = get_experiment(name)(self.config)
                with bench_span("render", experiment=name):
                    result.render()
                save_result(result, os.path.join(export, f"{name}.csv"))

        _, wall, cpu = _timed(body)
        return Sample(wall, cpu, self._csv_digests(export))

    def _csv_digests(self, export: str) -> dict[str, str]:
        paths = {name: os.path.join(export, f"{name}.csv") for name in self.items}
        return {
            name: file_digest(path) for name, path in paths.items() if os.path.exists(path)
        }

    def layer_metrics(self, passes, spans) -> dict[str, float]:
        ops = len(passes["traced"])
        generated = spans.get("trace_gen", [])
        experiments = spans.get("experiment", [])
        metrics = {
            "traces.requests": sum(s.attrs.get("requests", 0) for s in generated) / ops,
            "traces.generate_s": seconds_per_op(generated, ops),
            "trace_cache.generations": len(generated) / ops,
            "reporting.render_s": seconds_per_op(spans.get("render", []), ops),
            "experiments.other_s": sum(root.self_s for root in spans["op"]) / ops,
        }
        for name in self.items:
            mine = [s for s in experiments if s.attrs.get("experiment") == name]
            metrics[f"experiments.{name}_s"] = seconds_per_op(mine, ops)
        return metrics


# ----------------------------------------------------------------------
# comparison workloads
# ----------------------------------------------------------------------
def push_hints(topology, cost_model, seed: int) -> HintHierarchy:
    """Hints with hierarchical push-on-miss; a fresh push policy per build."""
    return HintHierarchy(
        topology,
        cost_model,
        push_policy=HierarchicalPushOnMiss(topology, "push-1", seed=seed),
    )


class _Comparison:
    """Set-up and trace-layer metrics shared by the comparison workloads."""

    name = ""
    profile_name = ""
    default_scale = 0.0
    traced_passes = ("inline", "traced")
    #: Set-ups per run (``setup_s`` is their median).
    setup_reps = 3

    def __init__(self, seed: int, tmp: str, scale: float | None = None) -> None:
        self.seed = seed
        self.tmp = tmp
        self.scale = self.default_scale if scale is None else scale
        self.config = dataclasses.replace(
            default_config().with_scale(self.scale), seed=seed
        )
        self.profile = self.config.profile(self.profile_name)
        self.cost = TestbedCostModel()
        self.timeline_dir = os.path.join(tmp, "timeline")
        self._setups = 0

    def fingerprints(self) -> dict[str, str]:
        return {self.profile_name: trace_fingerprint(self.profile, self.seed)}

    def simulated_requests(self) -> int:
        """Requests one operation simulates: the whole trace per architecture."""
        return len(self.trace.requests) * len(self.spec_list)

    def specs(self) -> list[ArchitectureSpec]:
        """The standard four, with unbounded caches."""
        topology = self.config.topology
        return [
            ArchitectureSpec(factory, (topology, self.cost))
            for factory in (
                DataHierarchy,
                IcpHierarchy,
                HintHierarchy,
                CentralizedDirectoryArchitecture,
            )
        ]

    def setup(self) -> float:
        """Generate the trace into a fresh store and build the specs."""
        self._setups += 1
        store = os.path.join(self.tmp, f"store-{self._setups}")
        start = time.perf_counter()
        cache = TraceCache(store)
        trace = cache.get(self.profile, self.seed)
        spec_list = self.specs()
        for spec in spec_list:
            spec.build()
        self.prepare(trace)
        elapsed = time.perf_counter() - start
        set_trace_cache(cache)
        self.store, self.trace, self.spec_list = store, trace, spec_list
        self.generate_s = cache.stats.generation_seconds
        self.generations = cache.stats.generations
        return elapsed

    def prepare(self, trace) -> None:
        """Workload-specific set-up once the trace exists."""

    def inline_op(self) -> Sample:
        return self.op()

    def layer_metrics(self, passes, spans) -> dict[str, float]:
        path = os.path.join(self.store, f"{trace_fingerprint(self.profile, self.seed)}.npz")
        _, load_s, _ = _timed(lambda: read_trace(path))
        return {
            "traces.requests": float(len(self.trace.requests)),
            "traces.generate_s": self.generate_s,
            "traces.store_load_s": load_s,
            "trace_cache.generations": float(self.generations),
            "trace_cache.disk_hits": float(get_trace_cache().stats.disk_hits),
        }


def _evictions(timeline_dir: str, names) -> float:
    """Summed ``repro_cache_evictions_total`` deltas of the exported rows."""
    total = 0.0
    for name in names:
        for row in read_timeline_jsonl(os.path.join(timeline_dir, f"{name}.jsonl")):
            for key, value in row["counters"].items():
                if key.startswith("repro_cache_evictions_total"):
                    total += value
    return total


class CompareFast(_Comparison):
    """Five unbounded architectures over dec on the columnar fast engine.

    Why: the read-mostly, pure-hit columnar path.  ``classify`` dominates;
    there is no reference loop, fault residual or telemetry.
    """

    name = "compare_fast"
    profile_name = "dec"
    default_scale = COMPARE_SCALE

    def specs(self) -> list[ArchitectureSpec]:
        return super().specs() + [
            ArchitectureSpec(push_hints, (self.config.topology, self.cost, self.seed))
        ]

    def op(self) -> Sample:
        def call():
            with bench_span("run_comparison_parallel"):
                return run_comparison_parallel(
                    self.profile, self.seed, self.spec_list, jobs=1, engine="auto"
                )

        results, wall, cpu = _timed(call)
        return _results_sample(results, wall, cpu, results)


class FaultedConstrained(_Comparison):
    """Bounded caches under an MTBF/MTTR fault plan, with telemetry.

    Why: the same fastpath layer used the other way.  Evictions and fault
    windows push most rows into the per-request residual replay, and
    telemetry bins close, so a pure-hit speed-up that costs the residual
    path shows here.
    """

    name = "faulted_constrained"
    profile_name = "berkeley"
    default_scale = FAULTED_SCALE

    def specs(self) -> list[ArchitectureSpec]:
        config, topology = self.config, self.config.topology
        policies = parse_policy_map(POLICY_MAP)
        data = dict(
            l1_bytes=config.l1_cache_bytes,
            l2_bytes=config.l1_cache_bytes,
            l3_bytes=config.l1_cache_bytes,
            l1_policy=policies.get("l1"),
            l2_policy=policies.get("l2"),
            l3_policy=policies.get("l3"),
        )
        hints = dict(l1_bytes=config.hint_data_cache_bytes, l1_policy=policies.get("l1"))
        return [
            ArchitectureSpec(DataHierarchy, (topology, self.cost), data),
            ArchitectureSpec(IcpHierarchy, (topology, self.cost), data),
            ArchitectureSpec(HintHierarchy, (topology, self.cost), hints),
            ArchitectureSpec(CentralizedDirectoryArchitecture, (topology, self.cost), hints),
        ]

    def prepare(self, trace) -> None:
        topology = self.config.topology
        targets = [(NodeKind.L1, node) for node in range(topology.n_l1)]
        targets += [(NodeKind.L2, node) for node in range(topology.n_l2)]
        self.fault_plan = FaultProfile(mtbf_s=MTBF_S, mttr_s=MTTR_S, seed=self.seed).plan(
            targets, duration_s=trace.duration
        )

    def op(self) -> Sample:
        def call():
            with bench_span("run_comparison_parallel"):
                return run_comparison_parallel(
                    self.profile,
                    self.seed,
                    self.spec_list,
                    engine="auto",
                    fault_plan=self.fault_plan,
                    timeline_dir=self.timeline_dir,
                )

        results, wall, cpu = _timed(call)
        return _results_sample(results, wall, cpu, results)

    def layer_metrics(self, passes, spans) -> dict[str, float]:
        metrics = super().layer_metrics(passes, spans)
        results = passes["traced"][-1].detail
        measured = sum(m.measured_requests for m in results.values())
        faulted = sum(m.degraded.faulted_requests for m in results.values())
        metrics.update(
            {
                "faults.events": float(len(self.fault_plan.events)),
                "faults.faulted_request_frac": faulted / measured,
                "faults.timeout_fallbacks": float(
                    sum(m.degraded.timeout_fallbacks for m in results.values())
                ),
                "cache.evictions": _evictions(self.timeline_dir, results),
            }
        )
        return metrics


class ShardedTimeline(_Comparison):
    """The standard four sharded over two worker processes, with telemetry.

    Why: the only multi-process workload.  It covers pool start-up,
    pickling, the per-task trace reload and re-split, per-partition builds,
    per-partition telemetry bins and the merge.  ``compare_fast`` runs the
    same four architectures (plus hints-push) over the same dec trace,
    unsharded: its ``parallel.task_s`` is the point of reference.
    """

    name = "sharded_timeline"
    profile_name = "dec"
    default_scale = SHARDED_SCALE
    #: The untraced jobs=2 pass gives the parallel efficiency its base.
    traced_passes = ("op", "inline", "traced")

    def op(self) -> Sample:
        return self._run(jobs=SHARDS)

    def inline_op(self) -> Sample:
        return self._run(jobs=1)

    def _run(self, jobs: int) -> Sample:
        def call():
            if jobs == 1:
                # What every pool worker does at jobs > 1: reload the trace
                # from the store into a fresh cache.
                set_trace_cache(TraceCache(self.store))
            with bench_span("run_comparison_sharded", jobs=jobs), _spanned_split():
                return sharding.run_comparison_sharded(
                    self.profile,
                    self.seed,
                    self.spec_list,
                    shards=SHARDS,
                    virtual_partitions=VIRTUAL_PARTITIONS,
                    jobs=jobs,
                    trace_cache_dir=self.store,
                    timeline_dir=self.timeline_dir,
                    engine="auto",
                )

        comparison, wall, cpu = _timed(call)
        return _results_sample(comparison.results, wall, cpu, comparison)

    def layer_metrics(self, passes, spans) -> dict[str, float]:
        metrics = super().layer_metrics(passes, spans)
        plan = sharding.ShardPlan(shards=SHARDS, virtual_partitions=VIRTUAL_PARTITIONS)
        _, split_s, _ = _timed(lambda: sharding.split_trace(self.trace, plan))
        comparison = passes["traced"][-1].detail
        requests = comparison.partition_requests
        inline_s = statistics.median(s.wall_s for s in passes["inline"])
        parallel_s = statistics.median(s.wall_s for s in passes["op"])
        metrics.update(
            {
                "sharding.split_s": split_s,
                "sharding.split_calls": len(spans.get("split_trace", []))
                / len(passes["traced"]),
                "sharding.inline_s": inline_s,
                "sharding.parallel_efficiency": inline_s / (SHARDS * parallel_s),
                "sharding.partition_imbalance": max(requests) / statistics.mean(requests),
                "sharding.max_shard_objects": float(comparison.max_shard_objects),
                "cache.evictions": _evictions(self.timeline_dir, comparison.results),
            }
        )
        return metrics


@contextmanager
def _spanned_split():
    """While profiled, record a bench span around every ``split_trace`` call.

    The sharded runner looks ``split_trace`` up at call time, so wrapping
    the module attribute counts the splits a run really performs.
    """
    if profiling.active() is None:
        yield
        return
    original = sharding.split_trace

    def split_trace(trace, plan):
        with bench_span("split_trace"):
            return original(trace, plan)

    sharding.split_trace = split_trace
    try:
        yield
    finally:
        sharding.split_trace = original


WORKLOADS = {
    workload.name: workload
    for workload in (PaperAll, CompareFast, FaultedConstrained, ShardedTimeline)
}
