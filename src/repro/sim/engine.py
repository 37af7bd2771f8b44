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

:func:`run_simulation_costs` is the same call for several cost models:
the paper classifies each request once and "parameterize[s] results using
estimates of Internet access times", so one classification is priced
under every model (N fresh runs on the reference engine).
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import TYPE_CHECKING, Callable, Sequence

from repro.hierarchy.base import Architecture
from repro.obs import profiling
from repro.sim.metrics import SimMetrics
from repro.traces.records import Trace

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.audit.hooks import AuditHooks
    from repro.faults.events import FaultPlan
    from repro.netmodel.model import CostModel
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
    _, (metrics,) = run_simulation_costs(
        trace,
        lambda _cost: architecture,
        [architecture.cost_model],
        warmup_s=warmup_s,
        include_uncachable=include_uncachable,
        fault_plan=fault_plan,
        journey_sink=journey_sink,
        telemetry=telemetry,
        audit=audit,
        engine=engine,
    )
    return metrics


def run_simulation_costs(
    trace: Trace,
    build: "Callable[[CostModel], Architecture]",
    costs: "Sequence[CostModel]",
    *,
    warmup_s: float | None = None,
    include_uncachable: bool = False,
    fault_plan: "FaultPlan | None" = None,
    journey_sink: "JourneySink | None" = None,
    telemetry: "RunTelemetry | None" = None,
    audit: "AuditHooks | None" = None,
    engine: str = "auto",
    priced_rows: list | None = None,
) -> tuple[Architecture, list[SimMetrics]]:
    """Classify once, price under every cost model: one SimMetrics each.

    A cost model only prices a journey after it is classified; it never
    changes what is cached, what a hint says, or where a request is
    served (the cost-independence invariant, DESIGN.md section 5).  So
    the fast engine builds one architecture, ``build(costs[0])``, runs it
    once and prices every batch under each model.  The reference engine
    (``engine="reference"``, audit hooks, architectures without a kernel)
    builds one architecture per model and runs each: the N fresh runs the
    one classification must equal byte for byte.

    Args:
        build: ``build(cost)`` returns a fresh architecture priced by
            ``cost`` (new state, push policy included, on every call).
        costs: Cost models, in the order of the returned metrics.
        priced_rows: Optional list receiving ``costs[0]``'s priced rows
            (:func:`repro.sim.fastpath.run_fast_simulation`); they come
            from the fast engine, so a reference run refuses them.
        The other keywords are :func:`run_simulation`'s.  A journey sink
        or telemetry records one pricing, so it takes a single model.

    Returns:
        ``(architecture, metrics)``: the architecture that ran under
        ``costs[0]`` (its push accounting serves every model) and one
        :class:`SimMetrics` per cost model, in order.
    """
    from repro.sim.fastpath import check_pricings

    costs = list(costs)
    check_pricings(costs, journey_sink, telemetry)
    built = [_build(build, costs[0], [])]
    architecture = built[0]
    options = dict(
        warmup_s=warmup_s,
        include_uncachable=include_uncachable,
        fault_plan=fault_plan,
        journey_sink=journey_sink,
        telemetry=telemetry,
        audit=audit,
        engine=engine,
    )
    if _runs_fast(architecture, audit, engine):
        return architecture, _simulate(
            trace, architecture, costs, True, priced_rows=priced_rows, **options
        )
    if priced_rows is not None:
        raise ValueError(
            "priced rows come from the fast engine; this run takes the "
            "reference loop"
        )
    metrics = _simulate(trace, architecture, costs[:1], False, **options)
    for cost in costs[1:]:
        built.append(_build(build, cost, built))
        metrics += _simulate(trace, built[-1], [cost], False, **options)
    return architecture, metrics


def _build(build, cost: "CostModel", built: list[Architecture]) -> Architecture:
    """``build(cost)``, refused unless fresh and priced by ``cost``."""
    architecture = build(cost)
    if architecture.cost_model is not cost or any(a is architecture for a in built):
        raise ValueError(
            "build(cost) must return a fresh architecture priced by cost"
        )
    return architecture


def _runs_fast(architecture: Architecture, audit, engine: str) -> bool:
    """Whether a run takes the fast engine; ``engine="fast"`` raises
    where no kernel drives the architecture."""
    if engine not in ("reference", "fast", "auto"):
        raise ValueError(
            f"unknown engine {engine!r}; expected 'reference', 'fast', or 'auto'"
        )
    if engine == "reference":
        return False
    from repro.sim import fastpath

    reason = fastpath.fast_unsupported_reason(architecture)
    if reason is not None:
        if engine == "fast":
            raise ValueError(reason)
        return False
    # Residual dispatch: audit checkpoints (and pre-attached fault or
    # audit state) run the per-request loop -- the fastpath module's
    # sanctioned residual.
    return audit is None and architecture.faults is None and architecture.audit is None


def _simulate(trace, architecture, costs, fast, *, engine, **options) -> list[SimMetrics]:
    """One classification priced under ``costs``, in a ``simulate`` span."""
    profiler = profiling.active()
    if profiler is None:
        return _run_simulation(trace, architecture, costs, fast, **options)
    with profiler.span(
        "simulate",
        category="engine",
        arch=architecture.name,
        engine=engine,
        requests=len(trace.requests),
        costs=[cost.name for cost in costs],
    ) as span:
        metrics = _run_simulation(trace, architecture, costs, fast, **options)
        span.attrs["measured_requests"] = metrics[0].measured_requests
    return metrics


def _run_simulation(
    trace: Trace,
    architecture: Architecture,
    costs: "list[CostModel]",
    fast: bool,
    *,
    warmup_s: float | None,
    include_uncachable: bool,
    fault_plan: "FaultPlan | None",
    journey_sink: "JourneySink | None",
    telemetry: "RunTelemetry | None",
    audit: "AuditHooks | None",
    priced_rows: list | None = None,
) -> list[SimMetrics]:
    """One run: the fast engine prices every model in ``costs``; the
    reference loop prices the architecture's own, ``costs``' only one."""
    if fast:
        from repro.sim import fastpath

        return fastpath.run_fast_simulation(
            trace,
            architecture,
            warmup_s=warmup_s,
            include_uncachable=include_uncachable,
            fault_plan=fault_plan,
            journey_sink=journey_sink,
            telemetry=telemetry,
            costs=costs,
            priced_rows=priced_rows,
        )
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
    return [metrics]


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
