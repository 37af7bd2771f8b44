"""Sharded runner: shard-count invariance, exactness, and refusal.

The headline pins: ``run_comparison_sharded(shards=1)`` and
``shards=4`` produce *equal* :class:`SimMetrics` (full dataclass
equality, histograms included) and byte-identical timeline files, for
any job count and under fault plans.  Partitions share no object state
and the coordinator folds them in canonical order, so nothing about the
physical layout may leak into results.  Every configuration the runner
accepts also equals the unsharded run (``TestExactness``), and every
other one is refused before any work starts (``TestRefusal``).
"""

from __future__ import annotations

import dataclasses
import filecmp
import math
import os
import re

import pytest

from repro.cache.policy import PolicySpec
from repro.common.ids import partition_of_object, partitions_of_objects
from repro.faults import (
    FaultPlan,
    HintBatchLoss,
    LinkDegrade,
    NodeCrash,
    NodeRecover,
    OriginSlowdown,
    StaleHintDrift,
)
from repro.hierarchy.client_hints import ClientHintHierarchy
from repro.hierarchy.data_hierarchy import DataHierarchy
from repro.hierarchy.directory_arch import CentralizedDirectoryArchitecture
from repro.hierarchy.hint_hierarchy import HintHierarchy
from repro.hierarchy.icp import IcpHierarchy
from repro.hierarchy.message_hints import MessageLevelHintHierarchy
from repro.netmodel.model import AccessPoint
from repro.netmodel.testbed import TestbedCostModel
from repro.obs import profiling
from repro.obs.export import read_timeline_jsonl
from repro.push.hierarchical import HierarchicalPushOnMiss
from repro.runner import sharding
from repro.runner.parallel import run_comparison_parallel
from repro.runner.sharding import (
    ShardPlan,
    run_comparison_sharded,
    split_trace,
)
from repro.runner.specs import ArchitectureSpec
from repro.runner.trace_cache import cached_trace
from repro.sim.engine import run_comparison
from repro.sim.metrics import LatencyHistogram
from tests.conftest import make_tiny_config

ARCHITECTURES = {
    "hierarchy": DataHierarchy,
    "icp": IcpHierarchy,
    "hints": HintHierarchy,
    "directory": CentralizedDirectoryArchitecture,
}


def standard_specs(config):
    """The full four-architecture matrix, unbounded caches."""
    return [
        ArchitectureSpec(cls, (config.topology, TestbedCostModel()))
        for cls in ARCHITECTURES.values()
    ]


class TestShardPlan:
    def test_rejects_zero_shards(self):
        with pytest.raises(ValueError, match="shards"):
            ShardPlan(shards=0)

    def test_rejects_more_shards_than_partitions(self):
        with pytest.raises(ValueError, match="virtual_partitions"):
            ShardPlan(shards=5, virtual_partitions=4)

    @pytest.mark.parametrize(
        "shards, virtual",
        [pytest.param(shards, 16, id=str(shards)) for shards in range(1, 17)]
        + [pytest.param(8, 64, id="8-of-64")],
    )
    def test_ownership_partitions_the_partition_set(self, shards, virtual):
        plan = ShardPlan(shards=shards, virtual_partitions=virtual)
        owned = [plan.partitions_of_shard(shard) for shard in range(shards)]
        flat = [p for group in owned for p in group]
        # Every partition exactly once, in contiguous ascending ranges.
        assert flat == list(range(virtual))
        for shard, group in enumerate(owned):
            assert len(group) in (virtual // shards, -(-virtual // shards))
            for partition in group:
                assert plan.owner_of(partition) == shard

    def test_single_shard_owns_everything(self):
        plan = ShardPlan(shards=1, virtual_partitions=16)
        assert plan.partitions_of_shard(0) == tuple(range(16))

    def test_owner_of_rejects_out_of_range(self):
        plan = ShardPlan(shards=2, virtual_partitions=8)
        with pytest.raises(ValueError, match="partition"):
            plan.owner_of(8)
        with pytest.raises(ValueError, match="shard"):
            plan.partitions_of_shard(2)


class TestPartitionHashing:
    def test_scalar_hash_is_stable(self):
        # Pinned: splitmix64 output must never drift (it addresses every
        # on-disk partitioning and every cross-run comparison).
        assert partition_of_object(0, 16) == partition_of_object(0, 16)
        seen = {partition_of_object(obj, 16) for obj in range(1000)}
        assert seen == set(range(16))  # all partitions populated

    def test_vectorized_matches_scalar(self):
        import numpy as np

        objects = np.arange(5000, dtype=np.int64)
        vector = partitions_of_objects(objects, 16)
        assert [partition_of_object(int(o), 16) for o in objects[:200]] == list(
            vector[:200]
        )


class TestSplitTrace:
    def test_partitions_cover_the_trace(self, dec_trace):
        plan = ShardPlan(shards=4, virtual_partitions=16)
        subs = split_trace(dec_trace, plan)
        assert len(subs) == 16
        assert sum(len(s.requests) for s in subs) == len(dec_trace.requests)
        for partition, sub in enumerate(subs):
            assert sub.profile_name == dec_trace.profile_name
            assert sub.duration == dec_trace.duration
            assert sub.warmup == dec_trace.warmup
            owners = partitions_of_objects(sub.columns().object, 16)
            assert (owners == partition).all()

    def test_sub_traces_stay_time_ordered(self, dec_trace):
        plan = ShardPlan(shards=2, virtual_partitions=4)
        for sub in split_trace(dec_trace, plan):
            times = sub.columns().time
            assert (times[1:] >= times[:-1]).all()


@pytest.fixture(scope="module")
def tiny_comparisons(tmp_path_factory):
    """shards=1 and shards=4 runs of the full matrix (shared, read-only)."""
    config = make_tiny_config()
    specs = standard_specs(config)
    runs = {}
    for shards in (1, 4):
        timeline_dir = str(tmp_path_factory.mktemp(f"timeline-{shards}"))
        runs[shards] = run_comparison_sharded(
            config.profile("dec"),
            config.seed,
            specs,
            shards=shards,
            timeline_dir=timeline_dir,
            engine="reference",
        )
    return runs


class TestShardCountInvariance:
    def test_metrics_identical_across_shard_counts(self, tiny_comparisons):
        one, four = tiny_comparisons[1], tiny_comparisons[4]
        assert list(one.results) == list(four.results) == list(ARCHITECTURES)
        for name in ARCHITECTURES:
            assert one.results[name] == four.results[name], name

    def test_timeline_rows_identical_across_shard_counts(self, tiny_comparisons):
        one, four = tiny_comparisons[1], tiny_comparisons[4]
        assert one.timeline_rows == four.timeline_rows

    def test_partition_layout_identical_across_shard_counts(
        self, tiny_comparisons
    ):
        one, four = tiny_comparisons[1], tiny_comparisons[4]
        assert one.partition_requests == four.partition_requests
        assert one.partition_objects == four.partition_objects
        # The fullest shard shrinks as shards grow -- that is the point.
        assert four.max_shard_objects < one.max_shard_objects
        assert one.max_shard_objects == sum(one.partition_objects)

    def test_requests_conserved(self, tiny_comparisons, dec_trace):
        for comparison in tiny_comparisons.values():
            assert sum(comparison.partition_requests) == len(dec_trace.requests)
            comparison.results["hierarchy"].validate()

    def test_jobs_and_timeline_files_identical(self, tmp_path, tiny_comparisons):
        config = make_tiny_config()
        timeline_dir = str(tmp_path / "timeline")
        fanned = run_comparison_sharded(
            config.profile("dec"),
            config.seed,
            standard_specs(config),
            shards=4,
            jobs=4,
            trace_cache_dir=str(tmp_path / "store"),
            timeline_dir=timeline_dir,
        )
        assert fanned.results == tiny_comparisons[4].results
        inline_dir = str(tmp_path / "timeline-inline")
        inline = run_comparison_sharded(
            config.profile("dec"),
            config.seed,
            standard_specs(config),
            shards=1,
            timeline_dir=inline_dir,
        )
        assert inline.results == fanned.results
        for name in ARCHITECTURES:
            assert filecmp.cmp(
                os.path.join(inline_dir, f"{name}.jsonl"),
                os.path.join(timeline_dir, f"{name}.jsonl"),
                shallow=False,
            ), name

    def test_fault_plan_invariant(self):
        config = make_tiny_config()
        plan = FaultPlan(
            events=(
                NodeCrash(time=0.0, kind="l2", node=0),
                OriginSlowdown(time=3600.0, factor=2.0),
            ),
            seed=config.seed,
        )
        specs = standard_specs(config)[:2]
        runs = {
            shards: run_comparison_sharded(
                config.profile("dec"),
                config.seed,
                specs,
                shards=shards,
                fault_plan=plan,
            )
            for shards in (1, 2)
        }
        assert runs[1].results == runs[2].results
        degraded = runs[1].results["hierarchy"].degraded
        assert degraded.fault_added_ms > 0 or degraded.timeout_fallbacks > 0

    def test_fast_engine_matches_reference(self, tiny_comparisons):
        config = make_tiny_config()
        fast = run_comparison_sharded(
            config.profile("dec"),
            config.seed,
            standard_specs(config),
            shards=4,
            engine="fast",
        )
        assert fast.results == tiny_comparisons[4].results

    def test_coordinator_time_is_attributed(self, tmp_path):
        """Under a profiler the coordinator's merge and JSONL write are
        spans of their own, one pair per architecture as it completes."""
        config = make_tiny_config()
        profiler = profiling.SpanProfiler()
        with profiling.attached(profiler):
            run_comparison_sharded(
                config.profile("dec"),
                config.seed,
                standard_specs(config)[:2],
                shards=2,
                timeline_dir=str(tmp_path),
            )
        names = [span.name for span in profiler.roots if span.name != "simulate"]
        assert names == ["timeline_merge", "export"] * 2
        assert profiler.roots[-1].name == "export"
        assert sorted(path.name for path in tmp_path.iterdir()) == [
            "hierarchy.jsonl", "icp.jsonl",
        ]

    def test_duplicate_architecture_name_rejected(self):
        config = make_tiny_config()
        specs = standard_specs(config)[:1] * 2
        with pytest.raises(ValueError, match="duplicate"):
            run_comparison_sharded(
                config.profile("dec"), config.seed, specs, shards=2
            )

    def test_rejects_bad_jobs(self):
        config = make_tiny_config()
        with pytest.raises(ValueError, match="jobs"):
            run_comparison_sharded(
                config.profile("dec"),
                config.seed,
                standard_specs(config),
                shards=1,
                jobs=0,
            )


def assert_metrics_match(unsharded, sharded, path):
    """Counters, labels and histogram bins exactly; floats to 1e-12 relative.

    Float totals may differ in the last bits: the sharded run sums each
    partition separately, then folds the partition totals.
    """
    if isinstance(unsharded, float):
        assert math.isclose(unsharded, sharded, rel_tol=1e-12, abs_tol=0.0), path
    elif isinstance(unsharded, LatencyHistogram):
        assert unsharded == sharded, path
    elif dataclasses.is_dataclass(unsharded):
        for field in dataclasses.fields(unsharded):
            assert_metrics_match(
                getattr(unsharded, field.name),
                getattr(sharded, field.name),
                f"{path}.{field.name}",
            )
    elif isinstance(unsharded, dict):
        assert set(unsharded) == set(sharded), path
        for key, value in unsharded.items():
            assert_metrics_match(value, sharded[key], f"{path}[{key}]")
    else:
        assert type(unsharded) is type(sharded) and unsharded == sharded, path


#: Float-valued timeline series: their sharded sums differ from the
#: unsharded ones in the order of addition only.
FLOAT_SERIES = ("repro_response_time_ms_sum", "repro_fault_added_ms_total")


def assert_rows_match(unsharded, sharded, arch, per_total=False):
    """Same bins and keys; counts exact, float sums to 1e-12 relative.

    With ``per_total`` each float bin is held to 1e-12 of its series'
    running total instead of its own value (see ``PER_TOTAL_CASES``).
    """
    assert len(unsharded) == len(sharded), arch
    totals: dict[str, float] = {}
    for expected, got in zip(unsharded, sharded):
        where = f"{arch} bin {expected['bin']}"
        for field in ("arch", "bin", "t_start", "t_end"):
            assert expected[field] == got[field], (where, field)
        for group in ("counters", "gauges"):
            assert set(expected[group]) == set(got[group]), (where, group)
            for key, value in expected[group].items():
                if key.split("{", 1)[0] not in FLOAT_SERIES:
                    assert value == got[group][key], (where, key)
                elif per_total:
                    totals[key] = totals.get(key, 0.0) + abs(value)
                    error = abs(value - got[group][key])
                    assert error <= 1e-12 * totals[key], (where, key)
                else:
                    assert math.isclose(
                        value, got[group][key], rel_tol=1e-12, abs_tol=0.0
                    ), (where, key)


def crash_plan(seed):
    """An L2 crash from the start and a slowed origin."""
    return FaultPlan(
        events=(
            NodeCrash(time=0.0, kind="l2", node=0),
            OriginSlowdown(time=3600.0, factor=2.0),
        ),
        seed=seed,
    )


def recovering_plan(seed, *extra):
    """Crashes that recover and a degraded network (plus ``extra`` events)."""
    return FaultPlan(
        events=(
            NodeCrash(time=200_000.0, kind="l1", node=1),
            NodeCrash(time=250_000.0, kind="l2", node=0),
            LinkDegrade(time=400_000.0, latency_mult=1.5),
            NodeRecover(time=600_000.0, kind="l1", node=1),
            NodeRecover(time=650_000.0, kind="l2", node=0),
            *extra,
        ),
        seed=seed,
    )


def drifting_plan(seed):
    """The recovering plan with stale-hint drift from 300,000 s on."""
    return recovering_plan(seed, StaleHintDrift(time=300_000.0, ttl_skew_s=600.0))


def one_spec(cls, **kwargs):
    """A specs builder for one architecture on the tiny topology."""
    return lambda config: [
        ArchitectureSpec(cls, (config.topology, TestbedCostModel()), kwargs)
    ]


#: Every configuration ``run_comparison_sharded`` accepts: a specs
#: builder, a fault-plan builder (or None), and the fault gauges the last
#: merged bin must read -- or None for a run accepted only without a
#: timeline (delayed hints; see ``TestRefusal``).
EXACT_CASES = {
    "clean": (standard_specs, None, {}),
    "faulted": (
        standard_specs,
        crash_plan,
        {"repro_fault_origin_factor": 2.0, "repro_fault_latency_mult": 1.0},
    ),
    "recovering": (
        standard_specs,
        recovering_plan,
        {"repro_fault_origin_factor": 1.0, "repro_fault_latency_mult": 1.5},
    ),
    "stale-hint-drift": (standard_specs, drifting_plan, None),
    "hint-delay": (one_spec(HintHierarchy, hint_delay_s=60.0), None, None),
    "ideal-push": (one_spec(HintHierarchy, charge_remote_as_l1=True), None, {}),
    "directory-l2": (
        one_spec(CentralizedDirectoryArchitecture, directory_point=AccessPoint.L2),
        None,
        {},
    ),
}

#: Accepted cases whose float timeline bins are held to 1e-12 of the
#: series' running total, not of the bin.  A bin is the difference of
#: two running totals, so its rounding scales with the total: in
#: ``ideal-push``, whose bins are small beside its total, 70 of 504
#: sharded response-time bins are up to 2.2e-12 of their own value away
#: from the unsharded ones, and at most 1.6e-15 of the running total.
#: Every other case meets the per-bin bound.
PER_TOTAL_CASES = frozenset({"ideal-push"})


class TestExactness:
    """Every accepted configuration's sharded run equals the unsharded one.

    The standard four keep their cache state per object, so with
    unbounded caches and no random stream shared across objects,
    partitioning the object space changes no result: the clean run,
    fault plans that crash, recover, degrade links and drift hints, hint
    propagation delay, ideal-push accounting and a nearer directory.
    """

    @pytest.mark.parametrize("case", list(EXACT_CASES))
    def test_sharded_equals_unsharded(self, case, tmp_path):
        config = make_tiny_config()
        build_specs, build_plan, final_gauges = EXACT_CASES[case]
        specs = build_specs(config)
        fault_plan = build_plan(config.seed) if build_plan is not None else None
        timeline = final_gauges is not None
        sharded = run_comparison_sharded(
            config.profile("dec"),
            config.seed,
            specs,
            shards=2,
            fault_plan=fault_plan,
            timeline_dir=str(tmp_path / "sharded") if timeline else None,
            engine="auto",
        )
        unsharded = run_comparison(
            cached_trace(config.profile("dec"), config.seed),
            [spec.build() for spec in specs],
            fault_plan=fault_plan,
            engine="auto",
        )
        names = list(unsharded)
        assert list(sharded.results) == names
        for name, metrics in unsharded.items():
            assert metrics.measured_requests > 0, name
            assert_metrics_match(metrics, sharded.results[name], name)
        if fault_plan is not None:
            degraded = unsharded["hierarchy"].degraded
            assert degraded.fault_added_ms > 0 or degraded.timeout_fallbacks > 0
        if not timeline:
            return
        # The merged timelines equal the unsharded ones too -- the fault
        # gauges included, which every partition mirrors.
        timeline_dir = tmp_path / "unsharded"
        run_comparison_parallel(
            config.profile("dec"),
            config.seed,
            specs,
            fault_plan=fault_plan,
            timeline_dir=str(timeline_dir),
        )
        for name in names:
            assert_rows_match(
                read_timeline_jsonl(str(timeline_dir / f"{name}.jsonl")),
                sharded.timeline_rows[name],
                name,
                per_total=case in PER_TOTAL_CASES,
            )
        gauges = sharded.timeline_rows[names[0]][-1]["gauges"]
        for gauge, value in final_gauges.items():
            assert gauges[f'{gauge}{{arch="{names[0]}"}}'] == value, gauge


class _NoPool:
    """A ``ProcessPoolExecutor`` stand-in: constructing it fails the test."""

    def __init__(self, *args, **kwargs):
        raise AssertionError("a refused run started a process pool")


class _SubclassedHierarchy(DataHierarchy):
    """Same behaviour as its parent, but not a type the proof covers."""


#: Every kind of configuration ``run_comparison_sharded`` refuses: a specs
#: builder, a fault-plan builder (or None), and the reason it must name.
REFUSED_CASES = {
    "bounded-l1": (
        one_spec(DataHierarchy, l1_bytes=256 * 1024),
        None,
        "bounded L1 cache",
    ),
    "bounded-l2": (
        one_spec(DataHierarchy, l2_bytes=256 * 1024),
        None,
        "bounded L2 cache",
    ),
    "bounded-l3": (
        one_spec(IcpHierarchy, l3_bytes=256 * 1024),
        None,
        "bounded L3 cache",
    ),
    "random-policy-pressure": (
        one_spec(
            DataHierarchy,
            l1_bytes=256 * 1024,
            l2_bytes=256 * 1024,
            l3_bytes=256 * 1024,
            l1_policy=PolicySpec("random", seed=41),
            l2_policy=PolicySpec("random", seed=42),
            l3_policy=PolicySpec("random", seed=43),
        ),
        None,
        "bounded L1 cache",
    ),
    "bounded-hint-cache": (
        one_spec(HintHierarchy, hint_capacity_bytes=4096),
        None,
        "bounded hint cache",
    ),
    "push-1": (
        lambda config: [
            ArchitectureSpec(
                HintHierarchy,
                (config.topology, TestbedCostModel()),
                dict(
                    push_policy=HierarchicalPushOnMiss(
                        config.topology, "push-1", seed=config.seed
                    )
                ),
            )
        ],
        None,
        "push policy",
    ),
    "client-hints": (
        one_spec(ClientHintHierarchy, client_false_negative_rate=0.2),
        None,
        "ClientHintHierarchy is not one of",
    ),
    "message-level-hints": (
        one_spec(MessageLevelHintHierarchy),
        None,
        "MessageLevelHintHierarchy is not one of",
    ),
    "subclass": (
        one_spec(_SubclassedHierarchy),
        None,
        "_SubclassedHierarchy is not one of",
    ),
    "hint-batch-loss": (
        standard_specs,
        lambda seed: FaultPlan(events=(HintBatchLoss(time=0.0, prob=0.3),), seed=seed),
        "HintBatchLoss",
    ),
    "hint-delay-timeline": (
        one_spec(HintHierarchy, hint_delay_s=60.0),
        None,
        "delayed hints with a timeline",
    ),
    "stale-hint-drift-timeline": (
        one_spec(HintHierarchy),
        drifting_plan,
        "delayed hints with a timeline",
    ),
}


class TestRefusal:
    """Everything else is refused with one ValueError, before any work.

    The refusal names the architecture and the reason, and comes before
    a process pool, a trace or a shard task exists -- so nothing is
    computed, and no timeline directory is created.
    """

    @pytest.mark.parametrize("case", list(REFUSED_CASES))
    def test_refused_before_any_work(self, case, tmp_path, monkeypatch):
        config = make_tiny_config()
        build_specs, build_plan, reason = REFUSED_CASES[case]
        specs = build_specs(config)
        fault_plan = build_plan(config.seed) if build_plan is not None else None

        def no_work(*args, **kwargs):
            raise AssertionError("a refused run started work")

        monkeypatch.setattr(sharding, "ProcessPoolExecutor", _NoPool)
        monkeypatch.setattr(sharding, "_shard_task", no_work)
        monkeypatch.setattr(sharding, "cached_trace", no_work)
        timeline_dir = tmp_path / "timeline"
        refused = re.escape(f"cannot shard {specs[0].build().name!r} exactly")
        with pytest.raises(ValueError, match=refused) as refusal:
            run_comparison_sharded(
                config.profile("dec"),
                config.seed,
                specs,
                shards=2,
                jobs=2,
                fault_plan=fault_plan,
                timeline_dir=str(timeline_dir),
            )
        assert reason in str(refusal.value)
        assert not timeline_dir.exists()

    def test_the_stand_ins_catch_work(self, monkeypatch):
        # The refusal test's guards have teeth: an accepted run trips them.
        config = make_tiny_config()
        monkeypatch.setattr(sharding, "ProcessPoolExecutor", _NoPool)
        with pytest.raises(AssertionError, match="process pool"):
            run_comparison_sharded(
                config.profile("dec"),
                config.seed,
                standard_specs(config),
                shards=2,
                jobs=2,
            )
