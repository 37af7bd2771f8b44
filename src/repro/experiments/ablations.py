"""Ablations beyond the paper's figures.

Three design questions DESIGN.md calls out, each isolating one choice:

* **ICP baseline** -- the paper argues multicast queries either add hops
  or limit sharing; we run an ICP-style sibling-query hierarchy next to
  the data hierarchy and the hint architecture.
* **Fan-out sweep** -- how the hint architecture's advantage varies with
  the number of L1 proxies per L2 group (wider groups = more copies at L2
  distance, fewer at L3 distance).
* **Metadata-tree branching** -- how the filtering hierarchy's root load
  varies with branching factor (Table 5 generalized).
"""

from __future__ import annotations

from dataclasses import replace

from repro.cache.lru import LookupResult, LRUCache
from repro.experiments.base import ExperimentResult, resolve_config, trace_for
from repro.hierarchy.data_hierarchy import DataHierarchy
from repro.hierarchy.hint_hierarchy import HintHierarchy
from repro.hierarchy.icp import IcpHierarchy
from repro.hierarchy.topology import HierarchyTopology
from repro.hints.propagation import HintPropagationTree
from repro.netmodel.testbed import TestbedCostModel
from repro.sim.config import ExperimentConfig
from repro.sim.engine import run_simulation


def run_icp(config: ExperimentConfig | None = None, profile_name: str = "dec") -> ExperimentResult:
    """ICP sibling queries vs plain hierarchy vs hints."""
    config = resolve_config(config)
    trace = trace_for(config, profile_name)
    cost = TestbedCostModel()
    rows = []
    for arch in (
        DataHierarchy(config.topology, cost),
        IcpHierarchy(config.topology, cost),
        HintHierarchy(config.topology, cost),
    ):
        metrics = run_simulation(trace, arch)
        row = {
            "architecture": arch.name,
            "mean_response_ms": metrics.mean_response_ms,
            "hit_ratio": metrics.hit_ratio,
        }
        if isinstance(arch, IcpHierarchy):
            row["sibling_hit_rate"] = (
                arch.sibling_hits / arch.sibling_queries if arch.sibling_queries else 0.0
            )
        rows.append(row)
    return ExperimentResult(
        experiment="ablation_icp",
        description="ICP-style sibling queries vs hierarchy and hints",
        rows=rows,
        paper_claims={
            "expectation": "ICP queries slow every miss and reach only the "
            "sibling group; hints reach every cache without slowing misses",
        },
    )


def run_fanout(config: ExperimentConfig | None = None, profile_name: str = "dec") -> ExperimentResult:
    """Sweep L1-per-L2 fan-out and measure the hint speedup."""
    config = resolve_config(config)
    cost = TestbedCostModel()
    n_l1 = config.topology.n_l1
    rows = []
    for l1_per_l2 in (2, 4, 8, 16):
        if n_l1 % l1_per_l2:
            continue
        topology = HierarchyTopology(
            clients_per_l1=config.topology.clients_per_l1,
            l1_per_l2=l1_per_l2,
            n_l2=n_l1 // l1_per_l2,
        )
        swept = replace(config, topology=topology)
        trace = trace_for(swept, profile_name)
        base = run_simulation(trace, DataHierarchy(topology, cost))
        hints = run_simulation(trace, HintHierarchy(topology, cost))
        rows.append(
            {
                "l1_per_l2": l1_per_l2,
                "n_l2": topology.n_l2,
                "hierarchy_ms": base.mean_response_ms,
                "hints_ms": hints.mean_response_ms,
                "speedup": base.mean_response_ms / hints.mean_response_ms,
            }
        )
    return ExperimentResult(
        experiment="ablation_fanout",
        description="hint speedup vs L2-group fan-out",
        rows=rows,
        paper_claims={
            "expectation": "hints win at every fan-out; wider L2 groups pull "
            "remote hits from L3 distance to L2 distance for both systems",
        },
    )


def run_branching(config: ExperimentConfig | None = None, profile_name: str = "dec") -> ExperimentResult:
    """Sweep metadata-tree branching and measure root update load."""
    config = resolve_config(config)
    columns = trace_for(config, profile_name).columns()
    storable = columns.cacheable & ~columns.error
    topology = config.topology
    rows = []
    for branching in (2, 4, 8, 16, 64):
        if branching > topology.n_l1:
            continue
        tree = HintPropagationTree.balanced(branching=branching, leaves=topology.n_l1)
        caches = [LRUCache(config.l1_cache_bytes) for _ in range(topology.n_l1)]
        total_events = 0
        for client, object_id, size, version in columns.fields(
            "client", "object", "size", "version", where=storable
        ):
            leaf = topology.l1_of_client(client)
            if caches[leaf].lookup(object_id, version) is LookupResult.HIT:
                continue
            evicted = caches[leaf].insert(object_id, size, version)
            tree.inform(leaf, object_id)
            total_events += 1
            for key in evicted:
                tree.retract(leaf, key)
                total_events += 1
        rows.append(
            {
                "branching": branching,
                "tree_levels": _levels(branching, topology.n_l1),
                "root_messages": tree.root_messages,
                "total_events": total_events,
                "filter_ratio": total_events / tree.root_messages if tree.root_messages else 0.0,
            }
        )
    return ExperimentResult(
        experiment="ablation_branching",
        description="metadata-tree branching vs root update load",
        rows=rows,
        paper_claims={
            "expectation": "any hierarchy filters updates vs a centralized "
            "directory; deeper trees filter no worse at the root",
        },
    )


def run_push_locality(
    config: ExperimentConfig | None = None, profile_name: str = "dec"
) -> ExperimentResult:
    """Does subtree locality change what push caching achieves?

    Section 4.1.3: "if there is locality within subtrees, items popular in
    one subtree but not another will be more widely replicated in the
    subtree where the item is popular."  We generate the same workload
    with and without region-specific popularity and compare hierarchical
    push-on-miss under both.
    """
    from dataclasses import replace as dc_replace

    from repro.hierarchy.hint_hierarchy import HintHierarchy
    from repro.netmodel.model import AccessPoint
    from repro.netmodel.testbed import TestbedCostModel
    from repro.push.hierarchical import HierarchicalPushOnMiss
    from repro.runner.trace_cache import cached_trace

    config = resolve_config(config)
    rows = []
    for label, regional in (("global interest", 0.0), ("regional interest", 0.6)):
        profile = dc_replace(
            config.profile(profile_name),
            regional_interest=regional,
            n_regions=config.topology.n_l2,
        )
        trace = cached_trace(profile, config.seed)
        for push in (False, True):
            policy = (
                HierarchicalPushOnMiss(config.topology, "push-1", seed=config.seed)
                if push
                else None
            )
            arch = HintHierarchy(
                config.topology,
                TestbedCostModel(),
                l1_bytes=config.hint_data_cache_bytes,
                hint_capacity_bytes=config.hint_store_bytes,
                push_policy=policy,
            )
            metrics = run_simulation(trace, arch)
            remote = metrics.requests_by_point[AccessPoint.L2] + metrics.requests_by_point[AccessPoint.L3]
            rows.append(
                {
                    "workload": label,
                    "system": "hints+push-1" if push else "hints",
                    "mean_response_ms": metrics.mean_response_ms,
                    "l2_share_of_remote": (
                        metrics.requests_by_point[AccessPoint.L2] / remote
                        if remote
                        else 0.0
                    ),
                    "push_efficiency": arch.push_stats.efficiency,
                }
            )
    return ExperimentResult(
        experiment="ablation_push_locality",
        description="hierarchical push with vs without subtree interest locality",
        rows=rows,
        paper_claims={
            "expectation": "regional interest concentrates remote hits at "
            "L2 distance and changes where pushed replicas pay off "
            "(section 4.1.3's locality remark)",
        },
    )


def run_negative_caching(
    config: ExperimentConfig | None = None, profile_name: str = "berkeley"
) -> ExperimentResult:
    """How many error-bound server contacts negative caching saves.

    Section 2.2.2 lists negative result caching among the avenues for
    attacking the residual (error/uncachable) misses it leaves out of
    scope.  We replay each trace's error requests through per-proxy
    negative caches at several TTLs and report the saved origin contacts.
    """
    from repro.cache.negative import NegativeResultCache
    from repro.common.units import MINUTES

    config = resolve_config(config)
    columns = trace_for(config, profile_name).columns()
    topology = config.topology
    error_requests = list(
        columns.fields("client", "object", "time", where=columns.error)
    )
    rows = [
        {
            "organization": "(none)",
            "negative_ttl": "-",
            "error_requests": len(error_requests),
            "server_contacts": len(error_requests),
            "saved_frac": 0.0,
        }
    ]
    for ttl_minutes in (30.0, 240.0, 24 * 60.0):
        # Per-proxy negative caches: only local repeats are saved.
        local_caches = [
            NegativeResultCache(ttl_s=ttl_minutes * MINUTES)
            for _ in range(topology.n_l1)
        ]
        local_contacts = 0
        # Negative results shared through the hint fabric: a repeat at ANY
        # proxy within the TTL is answered from the collective cache.
        shared_cache = NegativeResultCache(ttl_s=ttl_minutes * MINUTES)
        shared_contacts = 0
        for client, object_id, time in error_requests:
            local = local_caches[topology.l1_of_client(client)]
            if not local.check(object_id, time):
                local_contacts += 1
                local.record(object_id, time)
            if not shared_cache.check(object_id, time):
                shared_contacts += 1
                shared_cache.record(object_id, time)
        total = len(error_requests)
        for organization, contacts in (
            ("per-proxy", local_contacts),
            ("hint-shared", shared_contacts),
        ):
            rows.append(
                {
                    "organization": organization,
                    "negative_ttl": f"{ttl_minutes:g} min",
                    "error_requests": total,
                    "server_contacts": contacts,
                    "saved_frac": (total - contacts) / total if total else 0.0,
                }
            )
    return ExperimentResult(
        experiment="ablation_negative_caching",
        description=f"negative result caching on {profile_name}'s error traffic",
        rows=rows,
        paper_claims={
            "expectation": "an extension the paper points to but does not "
            "evaluate: repeated errors for the same URL can be answered "
            "locally within the negative TTL",
        },
    )


def run_plaxton_load(
    config: ExperimentConfig | None = None, profile_name: str = "dec"
) -> ExperimentResult:
    """Fixed metadata tree vs self-configured Plaxton fabric: root load.

    The balanced tree of Table 5 funnels every surviving update through
    one root; the Plaxton fabric gives each object its own virtual tree,
    spreading the same traffic across all nodes (section 3.1.3's load-
    distribution property).  We drive both with the same inform stream and
    compare the busiest node.
    """
    import numpy as np

    from repro.common.ids import node_id_from_name
    from repro.netmodel.topology import GeographicTopology
    from repro.plaxton.metadata import PlaxtonMetadataFabric
    from repro.plaxton.tree import PlaxtonTree

    config = resolve_config(config)
    trace = trace_for(config, profile_name)
    topology = config.topology
    n_l1 = topology.n_l1

    fixed = HintPropagationTree.balanced(branching=topology.l1_per_l2, leaves=n_l1)
    rng = np.random.default_rng(config.seed)
    geo = GeographicTopology(n_l1, topology.n_l2, rng)
    plaxton_tree = PlaxtonTree(
        [node_id_from_name(f"l1-{i}") for i in range(n_l1)], geo
    )
    fabric = PlaxtonMetadataFabric(plaxton_tree)

    object_hashes: dict[int, int] = {}
    caches = [LRUCache(config.l1_cache_bytes) for _ in range(n_l1)]
    columns = trace.columns()
    for client, object_id, size, version in columns.fields(
        "client", "object", "size", "version", where=columns.cacheable & ~columns.error
    ):
        leaf = topology.l1_of_client(client)
        if caches[leaf].lookup(object_id, version) is LookupResult.HIT:
            continue
        caches[leaf].insert(object_id, size, version)
        object_hash = object_hashes.setdefault(
            object_id, node_id_from_name(trace.url_for(object_id))
        )
        fixed.inform(leaf, object_id)
        fabric.inform(leaf, object_hash)

    fixed_interior_max = max(
        fixed.messages_at(node)
        for node in range(len(fixed.leaves), len(fixed.parent_vector()))
    )
    rows = [
        {
            "organization": "fixed balanced tree",
            "busiest_node_messages": fixed_interior_max,
            "root_messages": fixed.root_messages,
        },
        {
            "organization": "plaxton fabric",
            "busiest_node_messages": fabric.max_node_load(),
            "root_messages": "(per-object roots)",
        },
    ]
    return ExperimentResult(
        experiment="ablation_plaxton_load",
        description="metadata update load: fixed tree root vs Plaxton per-object roots",
        rows=rows,
        paper_claims={
            "expectation": "per-object virtual trees spread the update load "
            "that a fixed hierarchy concentrates near its root",
        },
    )


def run_consistency(
    config: ExperimentConfig | None = None, profile_name: str = "dec"
) -> ExperimentResult:
    """Quantify the weak-consistency distortion the paper factors out.

    Section 2.2.1 argues that Squid's discard-after-two-days weak
    consistency distorts hit rates in both directions: stale data served
    as "hits", and perfectly good data discarded by age.  This ablation
    runs one shared cache under strong (version-invalidation) consistency
    and under the TTL policy and reports both error terms.
    """
    from repro.cache.ttl import TTLCache, TTLLookupResult
    from repro.common.units import DAYS

    config = resolve_config(config)
    trace = trace_for(config, profile_name)
    columns = trace.columns()
    storable = columns.cacheable & ~columns.error
    fields = ("time", "object", "size", "version")
    rows = []

    # Strong consistency: the paper's methodology.
    strong = LRUCache(None)
    strong_hits = 0
    measured = 0
    from repro.cache.lru import LookupResult as StrongResult

    for time, object_id, size, version in columns.fields(*fields, where=storable):
        outcome = strong.lookup(object_id, version)
        if time >= trace.warmup:
            measured += 1
            if outcome is StrongResult.HIT:
                strong_hits += 1
        if outcome is not StrongResult.HIT:
            strong.insert(object_id, size, version)
    rows.append(
        {
            "consistency": "strong (invalidation)",
            "apparent_hit_ratio": strong_hits / measured if measured else 0.0,
            "stale_hits_served": 0,
            "fresh_discards": 0,
        }
    )

    for ttl_days in (0.5, 2.0, 8.0):
        ttl_cache = TTLCache(ttl_s=ttl_days * DAYS)
        hits = 0
        seen = 0
        for time, object_id, size, version in columns.fields(*fields, where=storable):
            outcome = ttl_cache.lookup(object_id, version, time)
            is_hit = outcome in (
                TTLLookupResult.FRESH_HIT, TTLLookupResult.STALE_HIT
            )
            if time >= trace.warmup:
                seen += 1
                if is_hit:
                    hits += 1
            if not is_hit:
                ttl_cache.insert(object_id, size, version, time)
        rows.append(
            {
                "consistency": f"weak (TTL {ttl_days:g} days)",
                "apparent_hit_ratio": hits / seen if seen else 0.0,
                "stale_hits_served": ttl_cache.stale_hits_served,
                "fresh_discards": ttl_cache.fresh_discards,
            }
        )
    return ExperimentResult(
        experiment="ablation_consistency",
        description="strong vs Squid-style TTL consistency (the 2.2.1 distortion)",
        rows=rows,
        paper_claims={
            "expectation": "weak consistency inflates apparent hits with "
            "stale data AND discards good data -- noise the paper removes "
            "by simulating strong consistency",
        },
    )


def _levels(branching: int, leaves: int) -> int:
    levels = 1
    count = leaves
    while count > 1:
        count = (count + branching - 1) // branching
        levels += 1
    return levels


def run(config: ExperimentConfig | None = None) -> ExperimentResult:
    """Run all three ablations; rows are concatenated with a study column."""
    config = resolve_config(config)
    combined = ExperimentResult(
        experiment="ablations",
        description=(
            "ICP baseline, fan-out sweep, metadata branching sweep, "
            "consistency-policy comparison"
        ),
    )
    for sub in (
        run_icp(config),
        run_fanout(config),
        run_branching(config),
        run_consistency(config),
        run_plaxton_load(config),
        run_negative_caching(config),
        run_push_locality(config),
    ):
        for row in sub.rows:
            combined.rows.append({"study": sub.experiment, **row})
        combined.paper_claims.update(
            {f"{sub.experiment}: {k}": v for k, v in sub.paper_claims.items()}
        )
    return combined
