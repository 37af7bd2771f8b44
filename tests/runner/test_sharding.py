"""Sharded runner: shard-count invariance, and exactness where it holds.

The headline pins: ``run_comparison_sharded(shards=1)`` and
``shards=4`` produce *equal* :class:`SimMetrics` (full dataclass
equality, histograms included) and byte-identical timeline files, for
any job count, under replacement-policy pressure, and under fault
plans.  Partitions share no object state and the coordinator folds them
in canonical order, so nothing about the physical layout may leak into
results.  With unbounded caches the standard four architectures keep
their state per object, so a sharded run also equals the unsharded one.
"""

from __future__ import annotations

import dataclasses
import filecmp
import math
import os

import pytest

from repro.cache.policy import PolicySpec
from repro.common.ids import mix64, partition_of_object, partitions_of_objects
from repro.faults import FaultPlan, NodeCrash, OriginSlowdown
from repro.hierarchy.data_hierarchy import DataHierarchy
from repro.hierarchy.directory_arch import CentralizedDirectoryArchitecture
from repro.hierarchy.hint_hierarchy import HintHierarchy
from repro.hierarchy.icp import IcpHierarchy
from repro.netmodel.testbed import TestbedCostModel
from repro.obs import profiling
from repro.obs.export import read_timeline_jsonl
from repro.runner.parallel import run_comparison_parallel
from repro.runner.sharding import (
    ShardPlan,
    partition_spec,
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

    def test_for_partition_reseeds_only_random(self):
        lru = PolicySpec("lru")
        assert lru.for_partition(3) is lru
        random = PolicySpec("random", seed=99)
        reseeded = random.for_partition(3)
        assert reseeded.name == "random"
        assert reseeded.seed == mix64(99, 3)
        assert random.for_partition(3) == reseeded  # stable identity

    def test_partition_spec_rewrites_policy_kwargs_only(self):
        config = make_tiny_config()
        spec = ArchitectureSpec(
            DataHierarchy,
            (config.topology, TestbedCostModel()),
            dict(l1_bytes=1024, l1_policy=PolicySpec("random", seed=5)),
        )
        rewritten = partition_spec(spec, 7)
        assert rewritten.kwargs["l1_bytes"] == 1024
        assert rewritten.kwargs["l1_policy"].seed == mix64(5, 7)
        # No PolicySpec kwargs -> the spec passes through untouched.
        plain = ArchitectureSpec(DataHierarchy, spec.args)
        assert partition_spec(plain, 7) is plain


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

    def test_random_policy_invariant_under_capacity_pressure(self):
        # Satellite: per-node Random seeds derive from stable identity
        # plus the partition id, never from shard layout -- so even the
        # stochastic policy pins across shard counts.
        config = make_tiny_config()
        kwargs = dict(
            l1_bytes=256 * 1024,
            l2_bytes=256 * 1024,
            l3_bytes=256 * 1024,
            l1_policy=PolicySpec("random", seed=41),
            l2_policy=PolicySpec("random", seed=42),
            l3_policy=PolicySpec("random", seed=43),
        )
        specs = [
            ArchitectureSpec(
                DataHierarchy, (config.topology, TestbedCostModel()), kwargs
            )
        ]
        runs = {
            shards: run_comparison_sharded(
                config.profile("dec"), config.seed, specs, shards=shards
            )
            for shards in (1, 4)
        }
        result = runs[1].results["hierarchy"]
        assert result == runs[4].results["hierarchy"]
        assert result.measured_requests > 0

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


def assert_rows_match(unsharded, sharded, arch):
    """Same bins and keys; counts exact, float sums to 1e-12 relative."""
    assert len(unsharded) == len(sharded), arch
    for expected, got in zip(unsharded, sharded):
        where = f"{arch} bin {expected['bin']}"
        for field in ("arch", "bin", "t_start", "t_end"):
            assert expected[field] == got[field], (where, field)
        for group in ("counters", "gauges"):
            assert set(expected[group]) == set(got[group]), (where, group)
            for key, value in expected[group].items():
                if key.split("{", 1)[0] in FLOAT_SERIES:
                    assert math.isclose(
                        value, got[group][key], rel_tol=1e-12, abs_tol=0.0
                    ), (where, key)
                else:
                    assert value == got[group][key], (where, key)


class TestExactness:
    """With unbounded caches, sharding the standard four changes no result.

    Each of them keeps its cache state per object, so partitioning the
    object space is exact.  Hints with push-1 is left out on purpose: its
    push RNG stream is shared across objects, so its sharded run is only
    approximate.
    """

    @pytest.mark.parametrize("faulted", [False, True], ids=["clean", "faulted"])
    def test_sharded_equals_unsharded(self, faulted, tmp_path):
        config = make_tiny_config()
        fault_plan = (
            FaultPlan(
                events=(
                    NodeCrash(time=0.0, kind="l2", node=0),
                    OriginSlowdown(time=3600.0, factor=2.0),
                ),
                seed=config.seed,
            )
            if faulted
            else None
        )
        specs = standard_specs(config)
        sharded = run_comparison_sharded(
            config.profile("dec"),
            config.seed,
            specs,
            shards=2,
            fault_plan=fault_plan,
            timeline_dir=str(tmp_path / "sharded"),
            engine="auto",
        )
        unsharded = run_comparison(
            cached_trace(config.profile("dec"), config.seed),
            [spec.build() for spec in specs],
            fault_plan=fault_plan,
            engine="auto",
        )
        assert list(sharded.results) == list(unsharded) == list(ARCHITECTURES)
        for name, metrics in unsharded.items():
            assert_metrics_match(metrics, sharded.results[name], name)
        if faulted:
            degraded = unsharded["hierarchy"].degraded
            assert degraded.fault_added_ms > 0 or degraded.timeout_fallbacks > 0
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
        for name in ARCHITECTURES:
            assert_rows_match(
                read_timeline_jsonl(str(timeline_dir / f"{name}.jsonl")),
                sharded.timeline_rows[name],
                name,
            )
        if faulted:
            gauges = sharded.timeline_rows["hierarchy"][-1]["gauges"]
            assert gauges['repro_fault_origin_factor{arch="hierarchy"}'] == 2.0
            assert gauges['repro_fault_latency_mult{arch="hierarchy"}'] == 1.0
