"""Trace-driven simulation driver.

One call = one architecture over one trace:

* requests before the warmup boundary are processed (caches fill, hints
  propagate) but not measured -- the paper warms caches on the first two
  days of each trace;
* uncachable and error requests are excluded from response-time results
  ("for the remainder of this study, we do not include Uncachable or Error
  requests in our results", section 2.2.2) but are counted so the
  exclusion is visible;
* every measured request's :class:`~repro.hierarchy.base.AccessResult`
  feeds one :class:`~repro.sim.metrics.SimMetrics`.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import TYPE_CHECKING

from repro.hierarchy.base import Architecture
from repro.obs import profiling
from repro.sim.metrics import SimMetrics
from repro.traces.records import Trace

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.audit.hooks import AuditHooks
    from repro.faults.events import FaultPlan
    from repro.obs.sink import JourneySink
    from repro.obs.telemetry import RunTelemetry


def run_simulation(
    trace: Trace,
    architecture: Architecture,
    *,
    warmup_s: float | None = None,
    include_uncachable: bool = False,
    fault_plan: "FaultPlan | None" = None,
    journey_sink: "JourneySink | None" = None,
    telemetry: "RunTelemetry | None" = None,
    audit: "AuditHooks | None" = None,
    engine: str = "auto",
) -> SimMetrics:
    """Drive ``architecture`` over ``trace`` and return aggregated metrics.

    Args:
        trace: Time-ordered workload.
        architecture: The cache system under test (mutated by the run).
        warmup_s: Measurement starts at this time; defaults to the trace's
            own warmup boundary.
        include_uncachable: Process uncachable/error requests through the
            architecture instead of skipping them.  The paper's evaluation
            skips them (counted under ``metrics.skipped_*``); when
            processed anyway they are counted under ``metrics.included_*``
            instead.  Figure 2 (miss taxonomy) is computed by the
            dedicated classifier, not through this engine.
        fault_plan: Optional deterministic fault schedule
            (:class:`repro.faults.events.FaultPlan`).  A fresh
            :class:`~repro.faults.injector.FaultInjector` replays it
            against this run: crash/recover events fire as simulation
            time passes each event, the architecture serves requests in
            degraded mode, and ``metrics.degraded`` accounts for the
            damage.  ``None`` (the default) takes the original code path
            and produces byte-identical metrics to a build without fault
            support.
        journey_sink: Optional :class:`repro.obs.sink.JourneySink`
            receiving every measured request with its ledger-derived
            result (warmup and skipped requests are not emitted).  The
            caller keeps ownership: the engine never closes it, so one
            sink can span several runs.  ``None`` (the default) costs a
            single predicate per measured request.
        telemetry: Optional :class:`repro.obs.telemetry.RunTelemetry`.
            When present, the engine advances its timeline with the
            simulated clock (closing fixed-width bins as time passes),
            accounts every processed request into per-window counters
            (``warmup``/``measured`` -- the measured slice reconciles
            exactly with this function's return value), and closes the
            final bin at ``trace.duration``.  The timeline is advanced
            *before* the fault injector, so bin-close snapshots observe
            the plan state as of the bin edge.  ``None`` (the default)
            costs one pointer check per site; telemetry output never
            feeds run fingerprints or golden snapshots.
        audit: Optional :class:`repro.audit.hooks.AuditHooks`.  When
            present, the engine (and, through attachment, the
            architecture and its caches) verifies runtime invariants at
            checkpoints -- cache byte accounting, hint/ground-truth
            agreement, journey-ledger exact sums, counter partitions,
            telemetry telescoping -- raising
            :class:`repro.audit.hooks.AuditError` on the first breakage.
            ``None`` (the default) costs one pointer check per site and
            leaves results byte-identical to an un-audited run.
        engine: ``"auto"`` (default) is ``"fast"`` where supported and
            ``"reference"`` otherwise, never raising.  ``"fast"`` runs
            :mod:`repro.sim.fastpath`'s columnar batch engine, which
            produces byte-identical metrics.  Fault plans are vectorized
            too: the batch driver splits spans at every scheduled event
            and runs active fault windows on the kernels' degraded
            patterns.  Audit hooks (checkpoints walk live state
            between requests) and architectures carrying pre-attached
            fault/audit state still dispatch back to this loop; an
            architecture without a vectorized kernel raises.
            ``"reference"`` always runs the per-request loop below: it is
            the oracle the parity tests and :mod:`repro.audit` hold the
            fast engine to.
    """
    if engine not in ("reference", "fast", "auto"):
        raise ValueError(
            f"unknown engine {engine!r}; expected 'reference', 'fast', or 'auto'"
        )
    profiler = profiling.active()
    if profiler is None:
        return _run_simulation(
            trace,
            architecture,
            warmup_s=warmup_s,
            include_uncachable=include_uncachable,
            fault_plan=fault_plan,
            journey_sink=journey_sink,
            telemetry=telemetry,
            audit=audit,
            engine=engine,
        )
    with profiler.span(
        "simulate",
        category="engine",
        arch=architecture.name,
        engine=engine,
        requests=len(trace.requests),
    ) as span:
        metrics = _run_simulation(
            trace,
            architecture,
            warmup_s=warmup_s,
            include_uncachable=include_uncachable,
            fault_plan=fault_plan,
            journey_sink=journey_sink,
            telemetry=telemetry,
            audit=audit,
            engine=engine,
        )
        span.attrs["measured_requests"] = metrics.measured_requests
    return metrics


def _run_simulation(
    trace: Trace,
    architecture: Architecture,
    *,
    warmup_s: float | None,
    include_uncachable: bool,
    fault_plan: "FaultPlan | None",
    journey_sink: "JourneySink | None",
    telemetry: "RunTelemetry | None",
    audit: "AuditHooks | None",
    engine: str,
) -> SimMetrics:
    """:func:`run_simulation` body, shared by the profiled/unprofiled entry."""
    if engine != "reference":
        from repro.sim import fastpath

        reason = fastpath.fast_unsupported_reason(architecture)
        if reason is not None:
            if engine == "fast":
                raise ValueError(reason)
        elif (
            audit is None
            and architecture.faults is None
            and architecture.audit is None
        ):
            return fastpath.run_fast_simulation(
                trace,
                architecture,
                warmup_s=warmup_s,
                include_uncachable=include_uncachable,
                fault_plan=fault_plan,
                journey_sink=journey_sink,
                telemetry=telemetry,
            )
        # Residual dispatch: audit checkpoints (and pre-attached fault or
        # audit state) run the per-request loop below -- the fastpath
        # module's sanctioned residual.
    boundary = trace.warmup if warmup_s is None else warmup_s
    metrics = SimMetrics(
        architecture=architecture.name,
        cost_model=architecture.cost_model.name,
    )
    injector = None
    if fault_plan is not None and fault_plan:
        from repro.faults.injector import FaultInjector

        injector = FaultInjector(fault_plan)
        injector.bind(architecture)
    if telemetry is not None:
        telemetry.begin(architecture, injector=injector)
    if audit is not None:
        audit.begin(
            architecture,
            trace,
            injector=injector,
            include_uncachable=include_uncachable,
        )
    processed = 0
    # The profiler, like the other observers, costs one pointer check per
    # run when detached; the loop itself is never touched per-request.
    profiler = profiling.active()
    loop_span = (
        profiler.span("reference_loop", category="engine", requests=len(trace.requests))
        if profiler is not None
        else nullcontext()
    )
    with loop_span:
        for request in trace.requests:
            # The simulated clock advances with *every* request, skipped or
            # not: timeline bins close and scheduled crash/recover events
            # fire as trace time passes, never stalled behind a run of
            # skipped requests.  (Timeline before injector, so bin-close
            # snapshots observe the plan state as of the bin edge.)
            if telemetry is not None:
                telemetry.advance(request.time)
            if injector is not None:
                injector.advance(request.time)
            if request.error:
                if not include_uncachable:
                    metrics.skipped_error += 1
                    continue
                metrics.included_error += 1
            elif not request.cacheable:
                # ``elif``: a request that is both error and uncachable counts
                # once, under its error class -- mirroring the skip path's
                # precedence so the two counter pairs partition identically.
                if not include_uncachable:
                    metrics.skipped_uncachable += 1
                    continue
                metrics.included_uncachable += 1
            result = architecture.process(request)
            processed += 1
            if audit is not None:
                audit.on_result(request, result, measured=request.time >= boundary)
            if request.time < boundary:
                metrics.warmup_requests += 1
                if telemetry is not None:
                    telemetry.observe(request, result, measured=False)
                continue
            metrics.record(
                result,
                request.size,
                faulted=injector is not None and injector.faults_active,
            )
            if telemetry is not None:
                telemetry.observe(request, result, measured=True)
            if journey_sink is not None:
                journey_sink.emit(metrics.measured_requests - 1, request, result)
    architecture.processed_requests += processed
    if telemetry is not None:
        telemetry.finish(trace.duration)
    if audit is not None:
        audit.finish(metrics, telemetry=telemetry)
    metrics.validate(expected_requests=len(trace.requests))
    return metrics


def run_comparison(
    trace: Trace,
    architectures: list[Architecture],
    *,
    warmup_s: float | None = None,
    include_uncachable: bool = False,
    fault_plan: "FaultPlan | None" = None,
    journey_sink: "JourneySink | None" = None,
    audit: "AuditHooks | None" = None,
    engine: str = "auto",
) -> dict[str, SimMetrics]:
    """Run several architectures over the same trace (fresh state each).

    Returns metrics keyed by architecture name, in input order (dicts
    preserve insertion order).  Architectures must be freshly constructed;
    reusing a warmed architecture would bias the comparison, so any
    instance that has already processed requests is rejected.

    ``fault_plan`` applies the same schedule to every architecture (each
    gets its own injector, so stochastic hint-loss draws are identical
    across them -- the comparison stays apples-to-apples).
    ``include_uncachable``, ``journey_sink``, and ``audit`` forward to
    every per-architecture :func:`run_simulation`, so the serial
    comparison exposes the same knobs as a single run (and as the
    parallel twin); the sink's ``architecture`` label is restamped
    before each run, so one sink collects all architectures' journeys
    distinguishably, and one :class:`~repro.audit.hooks.AuditHooks`
    re-binds to each architecture in turn (``begin`` resets it).
    """
    results: dict[str, SimMetrics] = {}
    for architecture in architectures:
        if architecture.name in results:
            raise ValueError(f"duplicate architecture name {architecture.name!r}")
        already = architecture.processed_requests
        if already:
            raise ValueError(
                f"architecture {architecture.name!r} has already processed "
                f"{already} requests; comparisons need freshly constructed "
                "architectures (reuse would bias results)"
            )
        if journey_sink is not None:
            journey_sink.architecture = architecture.name
        results[architecture.name] = run_simulation(
            trace,
            architecture,
            warmup_s=warmup_s,
            include_uncachable=include_uncachable,
            fault_plan=fault_plan,
            journey_sink=journey_sink,
            audit=audit,
            engine=engine,
        )
    return results
