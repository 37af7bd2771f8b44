"""Sharded multi-process simulation with shard-count-invariant results.

The single-process engine holds a comparison's whole object population
in one process; this module partitions the **object space** across
shard engines so a run's working set splits across worker processes --
the partitioning shape of distributed cache deployments (and of the
cooperative-caching literature the README surveys).

Three layers make shard counts invisible in the results:

* **Fixed virtual partitions.**  A :class:`ShardPlan` maps every object
  id to one of ``virtual_partitions`` *virtual* partitions via a stable
  hash (:func:`repro.common.ids.partition_of_object` -- never Python's
  randomized ``hash``).  :func:`split_trace` gives each partition its
  own sub-trace (its objects' requests, time order preserved); that is
  where ownership is established, and checked once.  Each partition
  then runs whole through :func:`~repro.sim.engine.run_simulation`, on
  either engine, with its own architecture instance (full L1 client
  population -- the client -> L1 mapping is topology-stable, so every
  partition sees the same proxy fabric).

* **Contiguous ownership.**  Shard ``s`` owns a contiguous range of
  partitions (``owner_of(p) = p * shards // virtual_partitions``), so
  every shard owns ``floor(V/S)`` or ``ceil(V/S)`` of them.  Changing
  ``shards`` only regroups identical per-partition computations.

* **Canonical-order merge.**  Workers return per-partition results
  *unmerged* -- metrics, and timelines as columns
  (:class:`repro.obs.telemetry.TimelineColumns`), never dict rows; the
  coordinator folds :meth:`repro.sim.metrics.SimMetrics.merge` and
  :func:`repro.obs.telemetry.merge_timeline_columns` in ascending
  partition order, with the float-addition order pinned.  Identical
  per-partition values folded in an identical order are bit-identical
  for any shard count and any job count.

Exact or refused: a sharded run equals the unsharded
:func:`~repro.sim.engine.run_comparison` over the same trace -- every
counter and histogram bin exactly, float totals up to the order of
addition -- and :func:`run_comparison_sharded` accepts nothing else.
The paper's four architectures (hierarchy, ICP, hints, directory) keep
their cache state per object, so they shard exactly unless something
couples objects.  Before any work starts the run refuses, with one
ValueError naming the architecture and the reason:

* any other architecture, or a subclass of the four (client hints and
  message-level hints draw from streams shared by every object);
* a bounded data or hint cache: each partition would keep the full
  per-node capacity, so ``V`` partitions would model ``V`` times the
  cache;
* a push policy (hierarchical push draws its targets from one random
  stream across all objects);
* a fault plan with hint-batch loss (its loss draws are one stream);
* with a timeline, hints that become visible late (``hint_delay_s > 0``
  or a ``StaleHintDrift`` event): a delayed hint is applied at the next
  lookup, so each partition's hint-entries gauge lags to its own last
  lookup.  The metrics of such a run are exact, and it is accepted
  without a timeline.

Fault plans replay per partition (every partition sees the same node
crash/recover schedule).  Merged timeline *gauges* are summed across
partitions (occupancy adds), except the ones that mirror the plan
(``repro_node_up`` and ``repro_fault_*``): the partitions must agree on
them and the merge keeps one copy, so they read what the unsharded run
reports (see :func:`repro.obs.telemetry.merge_timeline_columns`).
"""

from __future__ import annotations

import os
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from contextlib import ExitStack, nullcontext
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

from repro.common.ids import partitions_of_objects
from repro.common.timing import Stopwatch
from repro.faults.events import HintBatchLoss, StaleHintDrift
from repro.hierarchy.data_hierarchy import DataHierarchy
from repro.hierarchy.directory_arch import CentralizedDirectoryArchitecture
from repro.hierarchy.hint_hierarchy import HintHierarchy
from repro.hierarchy.icp import IcpHierarchy
from repro.obs import profiling
from repro.runner.specs import ArchitectureSpec
from repro.runner.trace_cache import cached_trace
from repro.sim.engine import run_simulation
from repro.sim.metrics import SimMetrics
from repro.traces.profiles import WorkloadProfile
from repro.traces.records import Trace

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.events import FaultPlan
    from repro.hierarchy.base import Architecture
    from repro.obs.telemetry import TimelineColumns

#: Default number of virtual partitions.  Fixed independently of the
#: shard count; every accepted run equals the unsharded one for any
#: layout, so the count moves only the order in which float totals add.
DEFAULT_VIRTUAL_PARTITIONS = 16


@dataclass(frozen=True)
class ShardPlan:
    """How one sharded run partitions the object space.

    Attributes:
        shards: Physical shard engines (process-pool work units per
            architecture).
        virtual_partitions: Fixed hash-space granularity; must be at
            least ``shards``.  Changing ``shards`` never changes any
            result; changing this changes only the order in which float
            totals are added.
    """

    shards: int
    virtual_partitions: int = DEFAULT_VIRTUAL_PARTITIONS

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ValueError(f"shards must be at least 1, got {self.shards}")
        if self.virtual_partitions < self.shards:
            raise ValueError(
                f"virtual_partitions ({self.virtual_partitions}) must be >= "
                f"shards ({self.shards}); each shard owns at least one"
            )

    def owner_of(self, partition: int) -> int:
        """The shard owning ``partition``: shards own contiguous ranges."""
        if not 0 <= partition < self.virtual_partitions:
            raise ValueError(
                f"partition {partition} outside [0, {self.virtual_partitions})"
            )
        return partition * self.shards // self.virtual_partitions

    def partitions_of_shard(self, shard: int) -> tuple[int, ...]:
        """The virtual partitions ``shard`` owns, ascending."""
        if not 0 <= shard < self.shards:
            raise ValueError(f"shard {shard} outside [0, {self.shards})")
        return tuple(
            partition
            for partition in range(self.virtual_partitions)
            if self.owner_of(partition) == shard
        )


#: The architectures whose sharded runs are proved equal to the unsharded
#: run (``tests/runner/test_sharding.py::TestExactness``).  Exact types
#: only: a subclass may keep state the proof never saw.
EXACT_ARCHITECTURES = (
    DataHierarchy, IcpHierarchy, HintHierarchy, CentralizedDirectoryArchitecture
)


def _inexact_reason(
    architecture: "Architecture", fault_plan: "FaultPlan | None", timeline: bool
) -> str | None:
    """Why a sharded run of ``architecture`` (with a timeline, if
    ``timeline``) would differ from the unsharded one, or ``None``."""
    if type(architecture) not in EXACT_ARCHITECTURES:
        exact = ", ".join(cls.__name__ for cls in EXACT_ARCHITECTURES)
        return f"{type(architecture).__name__} is not one of {exact}"
    caches = {"L1": architecture.l1_caches}
    if isinstance(architecture, (DataHierarchy, IcpHierarchy)):
        caches.update(L2=architecture.l2_caches, L3=[architecture.l3_cache])
    else:
        caches.update(hint=[architecture.directory])
    for level, group in caches.items():
        if any(cache.capacity_bytes is not None for cache in group):
            return f"a bounded {level} cache: every partition would keep its full size"
    if getattr(architecture, "push_policy", None) is not None:
        return "a push policy: push-N draws its targets from one stream for all objects"
    events = {type(event) for event in fault_plan or ()}
    if HintBatchLoss in events:
        return "HintBatchLoss: it draws batch losses from one stream for all objects"
    if timeline and isinstance(architecture, HintHierarchy) and (
        architecture.directory.propagation_delay_s > 0 or StaleHintDrift in events
    ):
        # A delayed hint becomes visible at the next lookup, so each
        # partition's hint-entries gauge lags to its own last lookup.
        return "delayed hints with a timeline: the merged hint-entries gauge falls short"
    return None


def _preflight(
    specs: Sequence[ArchitectureSpec],
    fault_plan: "FaultPlan | None",
    engine: str,
    timeline: bool,
) -> None:
    """A sharded run's one pre-flight, before any worker is spawned.

    Builds each spec once and raises ValueError with the serial path's
    error for an ``engine="fast"`` run it cannot drive, then for every
    configuration a sharded run would not reproduce exactly.
    """
    for spec in specs:
        architecture = spec.build()
        if engine == "fast":
            from repro.sim.fastpath import fast_unsupported_reason

            reason = fast_unsupported_reason(architecture)
            if reason is not None:
                raise ValueError(reason)
        reason = _inexact_reason(architecture, fault_plan, timeline)
        if reason is not None:
            raise ValueError(
                f"cannot shard {architecture.name!r} exactly: {reason}"
            )


def split_trace(trace: Trace, plan: ShardPlan) -> list[Trace]:
    """Split a trace into per-partition sub-traces (time order preserved).

    Each sub-trace keeps the parent's metadata (``n_objects``,
    ``n_clients``, ``duration``, ``warmup``), so warmup boundaries and
    timeline bin layouts agree across partitions; only the request rows
    are filtered to the partition's objects.

    This is the one place object ownership is established, so it is
    checked here, once: every request must land in exactly one
    sub-trace.  Architectures never re-check it per request.
    """
    import numpy as np

    columns = trace.columns()
    owners = partitions_of_objects(columns.object, plan.virtual_partitions)
    from repro.traces.columns import TraceColumns

    sub_traces: list[Trace] = []
    for partition in range(plan.virtual_partitions):
        mask = owners == partition
        sub_columns = TraceColumns(
            time=np.ascontiguousarray(columns.time[mask]),
            client=np.ascontiguousarray(columns.client[mask]),
            object=np.ascontiguousarray(columns.object[mask]),
            size=np.ascontiguousarray(columns.size[mask]),
            version=np.ascontiguousarray(columns.version[mask]),
            cacheable=np.ascontiguousarray(columns.cacheable[mask]),
            error=np.ascontiguousarray(columns.error[mask]),
        )
        sub_traces.append(
            Trace.from_columns(
                profile_name=trace.profile_name,
                columns=sub_columns,
                n_objects=trace.n_objects,
                n_clients=trace.n_clients,
                duration=trace.duration,
                warmup=trace.warmup,
            )
        )
    covered = sum(len(sub) for sub in sub_traces)
    if covered != len(trace):
        raise RuntimeError(
            f"split_trace covered {covered} of {len(trace)} requests"
        )
    return sub_traces


@dataclass
class ShardedComparison:
    """Everything one sharded comparison produced.

    Attributes:
        plan: The shard plan the run executed under.
        results: Architecture name -> merged :class:`SimMetrics`, in spec
            order -- the same shape :func:`run_comparison_parallel`
            returns, and the object the invariance pins compare.
        partition_requests: Requests per partition (sums to the trace).
        partition_objects: Distinct objects per partition -- the
            working-set split: with ``N`` shards each engine holds about
            ``1/N`` of the population, which is the scaling claim the
            EXPERIMENTS log records.
        timeline_rows: Architecture name -> merged timeline rows (empty
            when the run collected no telemetry).
        wall_s: End-to-end wall-clock of the comparison.
    """

    plan: ShardPlan
    results: dict[str, SimMetrics]
    partition_requests: list[int]
    partition_objects: list[int]
    timeline_rows: dict[str, list[dict]] = field(default_factory=dict)
    wall_s: float = 0.0

    @property
    def max_shard_objects(self) -> int:
        """Distinct objects held by the fullest shard (working-set peak)."""
        per_shard = [0] * self.plan.shards
        for partition, count in enumerate(self.partition_objects):
            per_shard[self.plan.owner_of(partition)] += count
        return max(per_shard)


def _shard_task(
    profile: WorkloadProfile,
    seed: int,
    spec: ArchitectureSpec,
    shard: int,
    plan: ShardPlan,
    warmup_s: float | None,
    include_uncachable: bool,
    fault_plan: "FaultPlan | None",
    collect_timeline: bool,
    timeline_bin_s: float,
    engine: str,
) -> list[tuple[int, SimMetrics, "TimelineColumns | None", int]]:
    """One (architecture, shard) work unit.

    Runs every virtual partition the shard owns and returns the
    *unmerged* per-partition results ``(partition, metrics, timeline
    columns, distinct objects)`` -- merging happens in the coordinator,
    in canonical partition order, so the fold order never depends on
    which worker ran what.

    Each partition runs whole through :func:`run_simulation`, on either
    engine: partitions share no object state, so running them one after
    another is all a shard does.
    """
    import numpy as np

    trace = cached_trace(profile, seed)
    sub_traces = split_trace(trace, plan)
    results = []
    for partition in plan.partitions_of_shard(shard):
        sub = sub_traces[partition]
        telemetry = None
        if collect_timeline:
            from repro.obs.telemetry import RunTelemetry

            telemetry = RunTelemetry(bin_s=timeline_bin_s)
        metrics = run_simulation(
            sub,
            spec.build(),
            warmup_s=warmup_s,
            include_uncachable=include_uncachable,
            fault_plan=fault_plan,
            telemetry=telemetry,
            engine=engine,
        )
        columns = telemetry.timeline.columns() if telemetry is not None else None
        objects = int(np.unique(sub.columns().object).size)
        results.append((partition, metrics, columns, objects))
    return results


def run_comparison_sharded(
    profile: WorkloadProfile,
    seed: int,
    specs: Sequence[ArchitectureSpec],
    *,
    shards: int,
    virtual_partitions: int = DEFAULT_VIRTUAL_PARTITIONS,
    jobs: int = 1,
    warmup_s: float | None = None,
    include_uncachable: bool = False,
    trace_cache_dir: str | None = None,
    fault_plan: "FaultPlan | None" = None,
    timeline_dir: str | None = None,
    timeline_bin_s: float = 3600.0,
    engine: str = "auto",
) -> ShardedComparison:
    """Sharded twin of :func:`~repro.runner.parallel.run_comparison_parallel`.

    Fans ``len(specs) * shards`` work units into the process pool (one
    per architecture per shard; ``jobs=1`` runs them inline) and merges
    the per-partition outputs in canonical partition order.  Results are
    bit-identical for any ``shards`` (given the same
    ``virtual_partitions``) and any ``jobs`` -- the shard-count-invariance
    pins assert exactly this -- and equal the unsharded run's up to the
    order of float addition.  A configuration that would not equal it
    raises ValueError before any work starts (see the module docstring).
    This is the only sharded entry point.

    ``timeline_dir`` mirrors the parallel runner: merged per-bin rows
    land in ``<timeline_dir>/<architecture>.jsonl``, canonical JSONL,
    byte-identical for any shard/job count.  Each architecture's file is
    merged and written as soon as its partitions are in; under an
    attached profiler each merge and each write records a
    ``timeline_merge`` and an ``export`` span.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    plan = ShardPlan(shards=shards, virtual_partitions=virtual_partitions)
    collect_timeline = timeline_dir is not None
    _preflight(specs, fault_plan, engine, collect_timeline)
    if collect_timeline:
        from repro.obs.export import write_timeline_jsonl
        from repro.obs.telemetry import merge_timeline_columns

        os.makedirs(timeline_dir, exist_ok=True)
    profiler = profiling.active()

    def span(name: str):
        if profiler is None:
            return nullcontext()
        return profiler.span(name, category="runner")

    tasks = [
        (
            profile,
            seed,
            specs[spec_index],
            shard,
            plan,
            warmup_s,
            include_uncachable,
            fault_plan,
            collect_timeline,
            timeline_bin_s,
            engine,
        )
        for spec_index in range(len(specs))
        for shard in range(plan.shards)
    ]
    results: dict[str, SimMetrics] = {}
    timeline_rows: dict[str, list[dict]] = {}
    partition_requests = [0] * plan.virtual_partitions
    partition_objects = [0] * plan.virtual_partitions
    with Stopwatch() as stopwatch, ExitStack() as stack:
        # Task outcomes in task order (architecture-major, shards
        # ascending), so partitions arrive in canonical order; each is
        # consumed and released as soon as it arrives.
        if jobs == 1:
            outcomes = (_shard_task(*task) for task in tasks)
        else:
            from repro.runner.parallel import _worker_init

            pool = stack.enter_context(
                ProcessPoolExecutor(
                    max_workers=jobs,
                    initializer=_worker_init,
                    initargs=(trace_cache_dir,),
                )
            )
            futures = deque(pool.submit(_shard_task, *task) for task in tasks)
            outcomes = (futures.popleft().result() for _ in tasks)
        for spec_index in range(len(specs)):
            slots: dict[int, tuple[SimMetrics, "TimelineColumns | None"]] = {}
            for _shard in range(plan.shards):
                for partition, metrics, columns, objects in next(outcomes):
                    slots[partition] = (metrics, columns)
                    partition_objects[partition] = objects
            ordered = [slots.pop(partition) for partition in range(plan.virtual_partitions)]
            merged = SimMetrics(
                architecture=ordered[0][0].architecture,
                cost_model=ordered[0][0].cost_model,
            )
            for metrics, _columns in ordered:
                merged.merge(metrics)
            if merged.architecture in results:
                raise ValueError(
                    f"duplicate architecture name {merged.architecture!r}"
                )
            merged.validate()
            results[merged.architecture] = merged
            if spec_index == 0:
                for partition, (metrics, _columns) in enumerate(ordered):
                    partition_requests[partition] = (
                        metrics.measured_requests
                        + metrics.warmup_requests
                        + metrics.skipped_error
                        + metrics.skipped_uncachable
                    )
            if collect_timeline:
                # Merged and written while the pool runs the next
                # architecture's tasks: only the last write waits at the end.
                with span("timeline_merge"):
                    rows = merge_timeline_columns(
                        [columns for _metrics, columns in ordered]
                    ).rows()
                timeline_rows[merged.architecture] = rows
                with span("export"):
                    write_timeline_jsonl(
                        rows, os.path.join(timeline_dir, f"{merged.architecture}.jsonl")
                    )

    return ShardedComparison(
        plan=plan,
        results=results,
        partition_requests=partition_requests,
        partition_objects=partition_objects,
        timeline_rows=timeline_rows,
        wall_s=stopwatch.elapsed,
    )
