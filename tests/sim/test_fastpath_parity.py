"""Differential parity: the columnar fast engine vs the reference engine.

Every configuration here runs both engines over the same trace and asserts
**byte-identical** ``SimMetrics`` -- equality of every counter, float
accumulator, and latency histogram bin.  The matrix covers all six
kernelized architectures (hierarchy, ICP, hints incl. push/ideal variants,
directory, client-hints, message-level hints), bounded and unbounded
caches, hint pathologies (false positives/negatives, suboptimal hits),
fault plans with active *and* quiescent windows (every fault kind, run on
the kernels' degraded patterns), journey streams, telemetry rows, and
batch-boundary / fault-edge invariance under Hypothesis.

A second matrix crosses every architecture kind with every replacement
policy (LRU / LFU / seeded Random) on *bounded* caches -- the kernels'
policy-agnostic contract (:mod:`repro.sim.fastpath` module docstring)
means non-LRU bookkeeping must advance identically on both engines.  A
third crosses every kind with the cost models the experiments run
besides the testbed model.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.policy import POLICY_NAMES, PolicySpec
from repro.faults import (
    FaultPlan,
    HintBatchLoss,
    LinkDegrade,
    NodeCrash,
    NodeRecover,
    OriginSlowdown,
    StaleHintDrift,
)
from repro.hierarchy.data_hierarchy import DataHierarchy
from repro.hierarchy.client_hints import ClientHintHierarchy
from repro.hierarchy.directory_arch import CentralizedDirectoryArchitecture
from repro.hierarchy.hint_hierarchy import HintHierarchy
from repro.hierarchy.icp import IcpHierarchy
from repro.hierarchy.message_hints import MessageLevelHintHierarchy
from repro.netmodel import LoadAwareCostModel, cost_model_by_name
from repro.netmodel.testbed import TestbedCostModel
from repro.obs.export import prometheus_text
from repro.obs.sink import SamplingJourneySink
from repro.obs.telemetry import MetricsRegistry, RunTelemetry
from repro.push.hierarchical import HierarchicalPushOnMiss
from repro.push.update_push import UpdatePush
from repro.sim.engine import run_simulation, run_simulation_costs
from repro.sim.fastpath import (
    HintKernel,
    _sequential_sum,
    fast_unsupported_reason,
    kernel_class_for,
    run_fast_simulation,
)
from repro.sim.metrics import LatencyHistogram

MB = 1024 * 1024

#: Every architecture kind in the parity matrix.  Six architecture types;
#: the extra cells pin bounded-cache eviction churn, hint pathologies, and
#: all three push-accounting variants of the hint hierarchy.
ALL_KINDS = [
    "hierarchy",
    "hierarchy-bounded",
    "icp",
    "directory",
    "hints",
    "hints-pathological",
    "hints-push",
    "hints-update-push",
    "hints-ideal",
    "client-hints",
    "message-hints",
]


def build_architecture(kind, topology, policy=None, cost=None):
    """Fresh architecture for one parity cell (never reused across runs).

    ``policy`` (a name or :class:`PolicySpec`) threads a replacement
    policy into every level the kind has.  Kinds that default to
    unbounded caches get bounded ones when a policy is requested --
    policies only differ under capacity pressure, so an unbounded policy
    cell would be vacuous.  ``cost`` replaces the testbed cost model.
    """
    cost = TestbedCostModel() if cost is None else cost
    spec = PolicySpec(policy, seed=13) if isinstance(policy, str) else policy
    data_policies = (
        {}
        if spec is None
        else {"l1_policy": spec, "l2_policy": spec, "l3_policy": spec}
    )
    l1_policy = {} if spec is None else {"l1_policy": spec}
    if kind == "hierarchy":
        bounds = (
            {}
            if spec is None
            else {"l1_bytes": 2 * MB, "l2_bytes": 8 * MB, "l3_bytes": 32 * MB}
        )
        return DataHierarchy(topology, cost, **bounds, **data_policies)
    if kind == "hierarchy-bounded":
        return DataHierarchy(
            topology,
            cost,
            l1_bytes=2 * MB,
            l2_bytes=8 * MB,
            l3_bytes=32 * MB,
            **data_policies,
        )
    if kind == "icp":
        return IcpHierarchy(
            topology, cost, l1_bytes=2 * MB, l2_bytes=8 * MB, **data_policies
        )
    if kind == "directory":
        return CentralizedDirectoryArchitecture(
            topology, cost, l1_bytes=2 * MB, **l1_policy
        )
    if kind == "hints":
        bounds = {} if spec is None else {"l1_bytes": 2 * MB}
        return HintHierarchy(topology, cost, **bounds, **l1_policy)
    if kind == "hints-pathological":
        # Bounded data caches force evictions (stale hints -> false
        # positives), the bounded hint store forces hint drops (false
        # negatives), and the propagation delay leaves nearer copies
        # invisible (suboptimal hits).
        return HintHierarchy(
            topology,
            cost,
            l1_bytes=int(1.8 * MB),
            hint_capacity_bytes=16 * 1024,
            hint_delay_s=7200.0,
            **l1_policy,
        )
    if kind == "hints-push":
        return HintHierarchy(
            topology,
            cost,
            l1_bytes=2 * MB,
            push_policy=HierarchicalPushOnMiss(topology, "push-1", seed=7),
            **l1_policy,
        )
    if kind == "hints-update-push":
        return HintHierarchy(
            topology,
            cost,
            l1_bytes=2 * MB,
            push_policy=UpdatePush(
                max_bandwidth_bytes_per_s=50_000.0, age_pushed_entries=True
            ),
            **l1_policy,
        )
    if kind == "hints-ideal":
        bounds = {} if spec is None else {"l1_bytes": 2 * MB}
        return HintHierarchy(
            topology, cost, charge_remote_as_l1=True, **bounds, **l1_policy
        )
    if kind == "client-hints":
        return ClientHintHierarchy(
            topology,
            cost,
            l1_bytes=2 * MB,
            client_false_negative_rate=0.35,
            seed=7,
            **l1_policy,
        )
    if kind == "message-hints":
        return MessageLevelHintHierarchy(
            topology,
            cost,
            l1_bytes=2 * MB,
            hint_capacity_bytes=8 * 1024,
            seed=7,
            **l1_policy,
        )
    raise AssertionError(kind)


#: Fault plans mix active windows (the kernels' degraded patterns) with
#: quiescent windows: crash-heavy alternates crash/recover pairs through
#: warmup *and* the measured region, link-degrade returns to multiplier
#: 1.0 mid-measurement so a run that started degraded turns quiescent,
#: and mixed schedules every event kind inside the measured window
#: (warmup ends at 172,800 s): L3 and meta crashes, origin slowdown
#: overlapping link degradation, hint-batch loss overlapping drift, all
#: under an L1 crash whose dead holdings stay in the hint and directory
#: maps until and after its recovery.
FAULT_PLANS = {
    "no-fault": None,
    "crash-heavy": (
        NodeCrash(time=0.0, kind="l1", node=0),
        NodeCrash(time=0.0, kind="l2", node=0),
        NodeRecover(time=1800.0, kind="l1", node=0),
        NodeCrash(time=3600.0, kind="meta", node=0),
        NodeRecover(time=5400.0, kind="l2", node=0),
        NodeRecover(time=7200.0, kind="meta", node=0),
        NodeCrash(time=200_000.0, kind="l1", node=1),
        NodeRecover(time=260_000.0, kind="l1", node=1),
    ),
    "link-degrade": (
        LinkDegrade(time=0.0, latency_mult=1.5),
        LinkDegrade(time=240_000.0, latency_mult=1.0),
    ),
    "mixed": (
        NodeCrash(time=250_000.0, kind="l1", node=1),
        NodeCrash(time=300_000.0, kind="l3", node=0),
        NodeRecover(time=400_000.0, kind="l3", node=0),
        NodeCrash(time=450_000.0, kind="meta", node=0),
        NodeRecover(time=550_000.0, kind="meta", node=0),
        OriginSlowdown(time=600_000.0, factor=2.0),
        LinkDegrade(time=650_000.0, latency_mult=1.25),
        OriginSlowdown(time=700_000.0, factor=1.0),
        LinkDegrade(time=750_000.0, latency_mult=1.0),
        HintBatchLoss(time=800_000.0, prob=0.3),
        StaleHintDrift(time=850_000.0, ttl_skew_s=600.0),
        HintBatchLoss(time=950_000.0, prob=0.0),
        NodeRecover(time=1_000_000.0, kind="l1", node=1),
        StaleHintDrift(time=1_100_000.0, ttl_skew_s=0.0),
    ),
}


def make_plan(fault_name, seed):
    events = FAULT_PLANS[fault_name]
    return FaultPlan(events=events, seed=seed) if events is not None else None


def run_pair(trace, kind, topology, **kwargs):
    reference = run_simulation(
        trace, build_architecture(kind, topology), engine="reference", **kwargs
    )
    fast = run_simulation(
        trace, build_architecture(kind, topology), engine="fast", **kwargs
    )
    return reference, fast


def assert_same_journeys(reference_sink, fast_sink):
    assert reference_sink.seen == fast_sink.seen
    assert len(reference_sink.samples) == len(fast_sink.samples)
    for (seq_r, req_r, res_r), (seq_f, req_f, res_f) in zip(
        reference_sink.samples, fast_sink.samples
    ):
        assert seq_r == seq_f
        assert req_r == req_f
        assert res_r.time_ms == res_f.time_ms
        assert res_r.point is res_f.point
        assert res_r.hit == res_f.hit
        assert res_r.remote_hit == res_f.remote_hit
        assert res_r.false_positive == res_f.false_positive
        assert res_r.false_negative == res_f.false_negative
        assert res_r.suboptimal_positive == res_f.suboptimal_positive
        assert res_r.push_hit == res_f.push_hit
        assert res_r.stale_hint_forward == res_f.stale_hint_forward
        assert res_r.timeout_fallback == res_f.timeout_fallback
        steps_r = [
            (s.kind, s.cost_ms, s.target, s.fault_ms, s.wasted)
            for s in res_r.journey.steps
        ]
        steps_f = [
            (s.kind, s.cost_ms, s.target, s.fault_ms, s.wasted)
            for s in res_f.journey.steps
        ]
        assert steps_r == steps_f


@pytest.mark.parametrize("fault_name", sorted(FAULT_PLANS))
@pytest.mark.parametrize("kind", ALL_KINDS)
def test_parity_matrix(kind, fault_name, tiny_config, dec_trace):
    """Architecture x fault-plan matrix: byte-identical SimMetrics."""
    plan = make_plan(fault_name, tiny_config.seed)
    reference, fast = run_pair(
        dec_trace, kind, tiny_config.topology, fault_plan=plan
    )
    assert reference == fast


@pytest.mark.parametrize("policy", sorted(POLICY_NAMES))
@pytest.mark.parametrize("kind", ALL_KINDS)
def test_policy_parity_matrix(kind, policy, tiny_config, dec_trace):
    """Architecture x replacement-policy matrix on bounded caches.

    The kernels never touch policy bookkeeping directly (raw probes are
    unbounded-only), so LFU frequency counters and Random victim streams
    must advance identically on both engines -- byte-identical metrics
    for every (kind, policy) cell."""
    reference = run_simulation(
        dec_trace,
        build_architecture(kind, tiny_config.topology, policy=policy),
        engine="reference",
    )
    fast = run_simulation(
        dec_trace,
        build_architecture(kind, tiny_config.topology, policy=policy),
        engine="fast",
    )
    assert reference == fast


#: Cost models the experiments run besides the testbed model: the Rousskov
#: bounds (figure8, figure10) and the queueing wrapper (load_sensitivity,
#: queueing_validation).  Each overrides the ``*_ms_batch`` methods with
#: vectorized ones (tests/netmodel/test_batch_pricing.py pins them to the
#: scalar methods); this matrix holds the kernels' pricing through them.
COST_MODELS = {
    "min": lambda: cost_model_by_name("min"),
    "max": lambda: cost_model_by_name("max"),
    "testbed+load0.5": lambda: LoadAwareCostModel(TestbedCostModel(), 0.5),
}


@pytest.mark.parametrize("cost_name", sorted(COST_MODELS))
@pytest.mark.parametrize("kind", ALL_KINDS)
def test_cost_model_parity_matrix(kind, cost_name, tiny_config, dec_trace):
    """Architecture x cost-model matrix: byte-identical SimMetrics.

    Every kind, so each step table's price rules -- including the direct
    pricing of client hints -- run under models with scalar-loop batch
    methods."""
    make_cost = COST_MODELS[cost_name]
    reference = run_simulation(
        dec_trace,
        build_architecture(kind, tiny_config.topology, cost=make_cost()),
        engine="reference",
    )
    fast = run_simulation(
        dec_trace,
        build_architecture(kind, tiny_config.topology, cost=make_cost()),
        engine="fast",
    )
    assert fast.cost_model == make_cost().name
    assert reference == fast


#: The multi-cost axis: the testbed model and every COST_MODELS entry.
PRICINGS = {"testbed": TestbedCostModel, **COST_MODELS}


@pytest.mark.parametrize("fault_name", ["no-fault", "mixed"])
@pytest.mark.parametrize("kind", ALL_KINDS)
def test_one_classification_priced_every_way(kind, fault_name, tiny_config, dec_trace):
    """The cost-independence guard: one classification priced four ways
    equals four fresh reference runs, byte for byte.

    A cost model only prices a classified journey.  A kernel whose
    classification read a price (say, fetching from the cheapest holder)
    would classify differently under each model, and this cell fails.
    The push accounting, the one classification's own, must equal every
    reference run's too."""
    plan = make_plan(fault_name, tiny_config.seed)
    costs = [make_cost() for make_cost in PRICINGS.values()]
    architecture, fast = run_simulation_costs(
        dec_trace,
        lambda cost: build_architecture(kind, tiny_config.topology, cost=cost),
        costs,
        fault_plan=plan,
        engine="fast",
    )
    assert [metrics.cost_model for metrics in fast] == [cost.name for cost in costs]
    for make_cost, metrics in zip(PRICINGS.values(), fast):
        fresh = build_architecture(kind, tiny_config.topology, cost=make_cost())
        reference = run_simulation(dec_trace, fresh, fault_plan=plan, engine="reference")
        assert reference == metrics
        if hasattr(fresh, "push_stats"):
            assert architecture.push_stats.__dict__ == fresh.push_stats.__dict__
    # Distinct models price the one classification differently.
    assert len({metrics.total_ms for metrics in fast}) == len(costs)


def test_reference_engine_prices_by_fresh_runs(tiny_config, dec_trace):
    """Without the fast engine, each model gets its own fresh build."""
    built = []

    def build(cost):
        built.append(build_architecture("hints-push", tiny_config.topology, cost=cost))
        return built[-1]

    costs = [make_cost() for make_cost in PRICINGS.values()]
    architecture, reference = run_simulation_costs(
        dec_trace, build, costs, engine="reference"
    )
    _, fast = run_simulation_costs(dec_trace, build, costs, engine="fast")
    assert len(built) == len(costs) + 1
    assert architecture is built[0]
    assert reference == fast


@pytest.mark.parametrize(
    "observer",
    [
        lambda: {"journey_sink": SamplingJourneySink(capacity=None)},
        lambda: {"telemetry": RunTelemetry(MetricsRegistry(), bin_s=3600.0)},
    ],
    ids=["journey_sink", "telemetry"],
)
@pytest.mark.parametrize("engine", ["fast", "reference"])
def test_multi_cost_run_refuses_observers(observer, engine, tiny_config, dec_trace):
    """Journeys and telemetry record one pricing: with two models, refused
    before anything is built; with one, attached as usual."""
    built = []

    def build(cost):
        built.append(build_architecture("hints", tiny_config.topology, cost=cost))
        return built[-1]

    costs = [TestbedCostModel(), cost_model_by_name("max")]
    with pytest.raises(ValueError, match="one pricing"):
        run_simulation_costs(dec_trace, build, costs, engine=engine, **observer())
    assert built == []
    _, (metrics,) = run_simulation_costs(
        dec_trace, build, costs[:1], engine=engine, **observer()
    )
    assert metrics == run_simulation(
        dec_trace, build_architecture("hints", tiny_config.topology), engine="reference"
    )


def test_multi_cost_run_refuses_bad_arguments(tiny_config, dec_trace):
    def build(cost):
        return build_architecture("hints", tiny_config.topology, cost=cost)

    with pytest.raises(ValueError, match="at least one"):
        run_simulation_costs(dec_trace, build, [])
    with pytest.raises(ValueError, match="priced by cost"):
        run_simulation_costs(
            dec_trace, lambda cost: build(TestbedCostModel()), [TestbedCostModel()]
        )
    # The reference engine builds once per cost: every build is checked,
    # for its pricing and for being fresh, not only the first.
    costs = [TestbedCostModel(), cost_model_by_name("max")]
    fixed = build(costs[0])
    with pytest.raises(ValueError, match="priced by cost"):
        run_simulation_costs(dec_trace, lambda cost: fixed, costs, engine="reference")

    def repriced(cost):
        fixed.cost_model = cost
        return fixed

    with pytest.raises(ValueError, match="fresh"):
        run_simulation_costs(dec_trace, repriced, costs, engine="reference")
    with pytest.raises(ValueError, match="fast engine"):
        run_simulation_costs(
            dec_trace, build, [TestbedCostModel()], engine="reference", priced_rows=[]
        )


def test_policy_cells_actually_evict(tiny_config, dec_trace):
    """The policy matrix is not vacuous: every kind's L1 caches evict, and
    distinct policies produce distinct metrics on at least one kind."""
    by_policy = {}
    for policy in sorted(POLICY_NAMES):
        arch = build_architecture("hierarchy", tiny_config.topology, policy=policy)
        by_policy[policy] = run_simulation(dec_trace, arch, engine="fast")
        assert sum(c.evictions for c in arch.l1_caches) > 0
    signatures = {
        (tuple(sorted(m.requests_by_point.items())), m.total_ms)
        for m in by_policy.values()
    }
    assert len(signatures) == 3


@pytest.mark.parametrize("fault_name", sorted(FAULT_PLANS))
@pytest.mark.parametrize("kind", ALL_KINDS)
def test_instrumented_parity_matrix(kind, fault_name, tiny_config, dec_trace):
    """Same matrix with journeys + telemetry attached: every journey step,
    every timeline row and the final registry's exposition (histogram
    buckets included) byte-identical, not just the final metrics."""
    plan = make_plan(fault_name, tiny_config.seed)
    sinks = {}
    rows = {}
    metrics = {}
    exposition = {}
    for engine in ("reference", "fast"):
        sink = SamplingJourneySink(capacity=None)
        telemetry = RunTelemetry(MetricsRegistry(), bin_s=3600.0)
        metrics[engine] = run_simulation(
            dec_trace,
            build_architecture(kind, tiny_config.topology),
            fault_plan=plan,
            journey_sink=sink,
            telemetry=telemetry,
            engine=engine,
        )
        sinks[engine] = sink
        rows[engine] = telemetry.rows
        exposition[engine] = prometheus_text(telemetry.registry)
    assert metrics["reference"] == metrics["fast"]
    assert_same_journeys(sinks["reference"], sinks["fast"])
    assert rows["reference"] == rows["fast"]
    assert exposition["reference"] == exposition["fast"]


def test_matrix_cells_are_not_vacuous(tiny_config, dec_trace):
    """The interesting counters actually fire in their matrix cells."""
    _, hints = run_pair(dec_trace, "hints-pathological", tiny_config.topology)
    assert hints.false_positives > 0
    assert hints.false_negatives > 0
    assert hints.suboptimal_positives > 0
    assert hints.remote_hits > 0

    icp_arch = build_architecture("icp", tiny_config.topology)
    run_simulation(dec_trace, icp_arch, engine="fast")
    assert icp_arch.sibling_queries > 0
    assert icp_arch.sibling_hits > 0

    _, push = run_pair(dec_trace, "hints-push", tiny_config.topology)
    assert push.push_hits > 0

    _, client = run_pair(dec_trace, "client-hints", tiny_config.topology)
    assert client.false_negatives > 0

    msg_arch = build_architecture("message-hints", tiny_config.topology)
    msg = run_simulation(dec_trace, msg_arch, engine="fast")
    assert msg.remote_hits > 0
    assert msg_arch.false_positive_probes + msg_arch.false_negative_misses > 0

    plan = make_plan("crash-heavy", tiny_config.seed)
    _, directory = run_pair(
        dec_trace, "directory", tiny_config.topology, fault_plan=plan
    )
    assert directory.degraded.faulted_requests > 0
    assert directory.degraded.stale_hint_forwards > 0

    # The mixed plan's active windows reach every degraded pattern family:
    # timeouts and surcharges on each degraded kernel, and stale-timeout
    # forwards to the dead holder wherever metadata names holders.
    mixed = make_plan("mixed", tiny_config.seed)
    for kind in ("hierarchy", "icp", "directory", "hints"):
        _, fast = run_pair(dec_trace, kind, tiny_config.topology, fault_plan=mixed)
        assert fast.degraded.timeout_fallbacks > 0, kind
        assert fast.degraded.fault_added_ms > 0, kind
        if kind in ("directory", "hints"):
            assert fast.degraded.stale_hint_forwards > 0, kind


def test_parity_include_uncachable_and_warmup(tiny_config, dec_trace):
    for kind in ("hierarchy", "icp", "directory", "hints"):
        reference, fast = run_pair(
            dec_trace,
            kind,
            tiny_config.topology,
            include_uncachable=True,
            warmup_s=0.0,
        )
        assert reference == fast
        assert fast.included_uncachable + fast.included_error > 0
        assert fast.warmup_requests == 0


def test_parity_prodigy_trace(tiny_config, prodigy_trace):
    for kind in ("hierarchy", "icp", "directory", "hints", "message-hints"):
        reference, fast = run_pair(prodigy_trace, kind, tiny_config.topology)
        assert reference == fast


@pytest.mark.parametrize("batch_size", [1, 7, 1024])
@pytest.mark.parametrize("kind", ALL_KINDS)
def test_batch_size_invariance_pinned(kind, batch_size, tiny_config, dec_trace):
    """Fixed batch-boundary sweep on every kernel: 1 (degenerate, empty
    miss lists), 7 (ragged), 1024 -- the probe's miss-row scatter.  Ten-
    minute telemetry bins close inside pending batches and on their
    edges, so every row and the final exposition must match too."""
    telemetry = {
        engine: RunTelemetry(MetricsRegistry(), bin_s=600.0)
        for engine in ("reference", "fast")
    }
    reference = run_simulation(
        dec_trace,
        build_architecture(kind, tiny_config.topology),
        telemetry=telemetry["reference"],
        engine="reference",
    )
    arch = build_architecture(kind, tiny_config.topology)
    (fast,) = run_fast_simulation(
        dec_trace,
        arch,
        telemetry=telemetry["fast"],
        costs=[arch.cost_model],
        batch_size=batch_size,
    )
    assert reference == fast
    assert telemetry["reference"].rows == telemetry["fast"].rows
    assert prometheus_text(telemetry["reference"].registry) == prometheus_text(
        telemetry["fast"].registry
    )


@pytest.mark.parametrize("batch_size", [1, 7, 1024])
@pytest.mark.parametrize("kind", ["hierarchy", "icp", "directory", "hints"])
def test_fault_edges_on_batch_boundaries_pinned(
    kind, batch_size, tiny_config, dec_trace
):
    """Crash/recover edges landing exactly on request timestamps that are
    also batch boundaries: the span splitter's worst case, on every
    degraded kernel (batch and fold boundaries fall inside the window)."""
    time_col = dec_trace.columns().time
    n = len(time_col)
    crash_i = min(batch_size, n - 1)
    recover_i = min(4 * batch_size, n - 1)
    plan = FaultPlan(
        events=(
            NodeCrash(time=float(time_col[crash_i]), kind="l1", node=0),
            NodeRecover(time=float(time_col[recover_i]), kind="l1", node=0),
        ),
        seed=tiny_config.seed,
    )
    reference = run_simulation(
        dec_trace,
        build_architecture(kind, tiny_config.topology),
        fault_plan=plan,
        engine="reference",
    )
    arch = build_architecture(kind, tiny_config.topology)
    (fast,) = run_fast_simulation(
        dec_trace,
        arch,
        fault_plan=plan,
        costs=[arch.cost_model],
        batch_size=batch_size,
    )
    assert reference == fast


_hypothesis_cache: dict = {}


def _hypothesis_trace():
    if "trace" not in _hypothesis_cache:
        from tests.conftest import make_tiny_config
        from repro.traces.synthetic import SyntheticTraceGenerator

        config = make_tiny_config()
        profile = config.profile("dec")
        trace = SyntheticTraceGenerator(profile, seed=config.seed).generate()
        _hypothesis_cache["trace"] = trace
        _hypothesis_cache["topology"] = config.topology
        _hypothesis_cache["seed"] = config.seed
    return _hypothesis_cache


@settings(max_examples=8, deadline=None)
@given(batch_size=st.integers(min_value=1, max_value=4096))
def test_batch_size_invariance_hypothesis(batch_size):
    """Any batch size yields the same metrics: boundaries never leak."""
    cache = _hypothesis_trace()
    if "reference" not in cache:
        cache["reference"] = run_simulation(
            cache["trace"],
            build_architecture("hierarchy", cache["topology"]),
            engine="reference",
        )
    arch = build_architecture("hierarchy", cache["topology"])
    (fast,) = run_fast_simulation(
        cache["trace"], arch, costs=[arch.cost_model], batch_size=batch_size
    )
    assert fast == cache["reference"]


@settings(max_examples=8, deadline=None)
@given(
    batch_size=st.integers(min_value=1, max_value=4096),
    crash_pos=st.integers(min_value=0, max_value=4095),
    window=st.integers(min_value=1, max_value=3000),
    align=st.booleans(),
    offset=st.floats(min_value=0.0, max_value=500.0),
)
def test_fault_boundary_invariance_hypothesis(
    batch_size, crash_pos, window, align, offset
):
    """Crash/recover edges on and off batch boundaries, at and between
    request timestamps: fast-vs-reference identity must survive every
    alignment -- the class of bug the span splitter is most likely to
    have."""
    cache = _hypothesis_trace()
    trace = cache["trace"]
    time_col = trace.columns().time
    n = len(time_col)
    if align:
        crash_pos = (crash_pos // batch_size) * batch_size
    crash_i = min(crash_pos, n - 1)
    recover_i = min(crash_i + window, n - 1)
    crash_t = float(time_col[crash_i])
    # ``offset`` shifts the recovery off any request timestamp, so events
    # also land strictly *between* rows.
    recover_t = float(time_col[recover_i]) + offset
    plan = FaultPlan(
        events=(
            NodeCrash(time=crash_t, kind="l1", node=0),
            NodeCrash(time=crash_t, kind="meta", node=0),
            NodeRecover(time=recover_t, kind="l1", node=0),
            NodeRecover(time=recover_t, kind="meta", node=0),
        ),
        seed=cache["seed"],
    )
    key = ("hints-ref", crash_t, recover_t)
    if key not in cache:
        cache[key] = run_simulation(
            trace,
            build_architecture("hints", cache["topology"]),
            fault_plan=plan,
            engine="reference",
        )
    arch = build_architecture("hints", cache["topology"])
    (fast,) = run_fast_simulation(
        trace,
        arch,
        fault_plan=plan,
        costs=[arch.cost_model],
        batch_size=batch_size,
    )
    assert fast == cache[key]


def test_push_variants_are_kernelized(tiny_config):
    """Push and ideal-push hint variants route to the hint-family kernel."""
    for kind in ("hints-push", "hints-update-push", "hints-ideal"):
        arch = build_architecture(kind, tiny_config.topology)
        assert fast_unsupported_reason(arch) is None
        assert kernel_class_for(arch) is HintKernel


class _UnkernelizedHierarchy(DataHierarchy):
    """Subclass with (hypothetically) different behavior: must not
    silently inherit the parent's kernel."""

    name = "custom-hierarchy"


def test_fast_raises_for_unsupported_architecture(tiny_config, dec_trace):
    arch = _UnkernelizedHierarchy(tiny_config.topology, TestbedCostModel())
    assert fast_unsupported_reason(arch) is not None
    with pytest.raises(ValueError, match="no vectorized kernel"):
        run_simulation(dec_trace, arch, engine="fast")


def test_auto_falls_back_for_unsupported_architecture(tiny_config, dec_trace):
    reference = run_simulation(
        dec_trace,
        _UnkernelizedHierarchy(tiny_config.topology, TestbedCostModel()),
        engine="reference",
    )
    auto = run_simulation(
        dec_trace,
        _UnkernelizedHierarchy(tiny_config.topology, TestbedCostModel()),
        engine="auto",
    )
    assert auto == reference


def test_engine_name_validated(tiny_config, dec_trace):
    with pytest.raises(ValueError, match="unknown engine"):
        run_simulation(
            dec_trace,
            build_architecture("hierarchy", tiny_config.topology),
            engine="warp",
        )


def test_sequential_sum_is_bitwise_left_to_right():
    """np.cumsum replays the reference's ``total += v`` chain exactly."""
    rng = np.random.default_rng(7)
    values = rng.uniform(0.01, 5000.0, size=4097)
    total = 3.25
    for v in values.tolist():
        total += v
    assert _sequential_sum(3.25, values) == total
    assert _sequential_sum(0.0, values[:1]) == values[0]
    assert _sequential_sum(1.5, values[:0]) == 1.5


def test_bulk_record_matches_scalar_loop_including_boundaries():
    """Vectorized binning equals a record() loop, bin for bin."""
    rng = np.random.default_rng(11)
    values = np.concatenate(
        [
            rng.uniform(0.0, 2.0, size=500),
            rng.lognormal(3.0, 2.0, size=500),
            # Exact bin edges and their float neighbours: the scalar
            # recheck band must route these through math.log10.
            np.array(
                [
                    10 ** (k / 32 - 1.0)
                    for k in range(0, 224, 7)
                ]
            ),
            np.nextafter(
                np.array([10 ** (k / 32 - 1.0) for k in range(0, 224, 7)]),
                np.inf,
            ),
            np.array([0.0, 0.1, np.nextafter(0.1, np.inf), 1e9]),
        ]
    )
    scalar = LatencyHistogram()
    for v in values.tolist():
        scalar.record(v)
    bulk = LatencyHistogram()
    bulk.bulk_record(values)
    assert bulk == scalar


def test_fast_rejects_attached_fault_or_audit_state(tiny_config, dec_trace):
    arch = build_architecture("hierarchy", tiny_config.topology)
    arch.faults = object()
    with pytest.raises(ValueError, match="healthy"):
        run_fast_simulation(dec_trace, arch, costs=[arch.cost_model])


def test_bad_batch_size_rejected(tiny_config, dec_trace):
    with pytest.raises(ValueError, match="batch size"):
        arch = build_architecture("hierarchy", tiny_config.topology)
        run_fast_simulation(dec_trace, arch, costs=[arch.cost_model], batch_size=0)
