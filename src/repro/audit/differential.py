"""Differential drivers: production vs. oracle over identical inputs.

Each ``run_*_differential`` function applies one operation/request stream
to both implementations and raises :class:`~repro.audit.hooks.AuditError`
at the first divergence, naming the operation index and the mismatching
facet.  The ``random_*`` generators produce those streams from a seeded
``numpy`` RNG, so the CLI and the Hypothesis tests share one vocabulary
(Hypothesis feeds the same drivers shrunken hand-built streams instead).

All comparisons are exact -- the implementations run the same float
arithmetic in the same order, so bit-for-bit equality is the contract,
not an aspiration.
"""

from __future__ import annotations

import numpy as np

from repro.audit.hooks import AuditError, AuditHooks
from repro.audit.oracles import (
    OracleHintDirectory,
    OracleLRUCache,
    oracle_data_hierarchy_run,
)
from repro.cache.lru import LRUCache
from repro.faults.events import (
    FaultPlan,
    LinkDegrade,
    NodeCrash,
    NodeRecover,
    OriginSlowdown,
)
from repro.hierarchy.topology import HierarchyTopology
from repro.hints.directory import HintDirectory
from repro.netmodel.model import CostModel
from repro.netmodel.testbed import TestbedCostModel
from repro.traces.records import Request, Trace


def _diverge(where: str, index, detail: str) -> None:
    raise AuditError(f"[differential:{where}] op {index}: {detail}")


# ----------------------------------------------------------------------
# LRU cache
# ----------------------------------------------------------------------
def random_lru_ops(
    rng: np.random.Generator,
    n_ops: int = 300,
    n_keys: int = 10,
    max_size: int = 120,
) -> list[tuple]:
    """A random LRU operation stream (lookups, inserts, churn, clears)."""
    ops: list[tuple] = []
    versions = {key: 0 for key in range(n_keys)}
    for _ in range(n_ops):
        key = int(rng.integers(0, n_keys))
        if rng.random() < 0.15:  # the object occasionally changes
            versions[key] += 1
        roll = rng.random()
        if roll < 0.45:
            ops.append(("lookup", key, versions[key]))
        elif roll < 0.85:
            ops.append(("insert", key, int(rng.integers(0, max_size)), versions[key]))
        elif roll < 0.90:
            ops.append(("invalidate", key))
        elif roll < 0.94:
            ops.append(("remove", key))
        elif roll < 0.98:
            ops.append(("demote", key))
        else:
            ops.append(("clear",))
    return ops


def run_lru_differential(ops: list[tuple], capacity_bytes: int | None = None) -> int:
    """Drive both LRU implementations; compare results and full state."""
    production = LRUCache(capacity_bytes)
    oracle = OracleLRUCache(capacity_bytes)
    for index, op in enumerate(ops):
        kind = op[0]
        if kind == "lookup":
            got, want = production.lookup(op[1], op[2]), oracle.lookup(op[1], op[2])
        elif kind == "insert":
            got = production.insert(op[1], op[2], op[3])
            want = oracle.insert(op[1], op[2], op[3])
        elif kind == "invalidate":
            got, want = production.invalidate(op[1]), oracle.invalidate(op[1])
        elif kind == "remove":
            got, want = production.remove(op[1]), oracle.remove(op[1])
        elif kind == "demote":
            got = production.touch_lru_demote(op[1])
            want = oracle.touch_lru_demote(op[1])
        elif kind == "clear":
            got, want = production.clear(), oracle.clear()
        else:
            raise ValueError(f"unknown op {op!r}")
        if got != want:
            _diverge("lru", index, f"{op}: production returned {got!r}, oracle {want!r}")
        if list(production) != oracle.keys():
            _diverge(
                "lru", index,
                f"recency order {list(production)} != oracle {oracle.keys()}",
            )
        if production.used_bytes != oracle.used_bytes:
            _diverge(
                "lru", index,
                f"used_bytes {production.used_bytes} != oracle {oracle.used_bytes}",
            )
        for key in production:
            entry = production.peek(key)
            if (entry.size, entry.version) != oracle.peek(key):
                _diverge(
                    "lru", index,
                    f"entry {key}: ({entry.size}, {entry.version}) != "
                    f"oracle {oracle.peek(key)}",
                )
        for counter in ("insertions", "evictions", "invalidations"):
            if getattr(production, counter) != getattr(oracle, counter):
                _diverge(
                    "lru", index,
                    f"{counter} {getattr(production, counter)} != "
                    f"oracle {getattr(oracle, counter)}",
                )
        if production.oversize_rejections != oracle.oversize_rejections:
            _diverge(
                "lru", index,
                f"oversize_rejections {production.oversize_rejections} != "
                f"oracle {oracle.oversize_rejections}",
            )
    return len(ops)


# ----------------------------------------------------------------------
# hint directory
# ----------------------------------------------------------------------
def random_directory_ops(
    rng: np.random.Generator,
    n_ops: int = 250,
    n_objects: int = 8,
    n_nodes: int = 6,
    t_step: float = 3.0,
) -> list[tuple]:
    """A time-ordered random inform/retract/find/drop stream."""
    ops: list[tuple] = []
    t = 0.0
    for _ in range(n_ops):
        t += float(rng.random()) * t_step
        obj = int(rng.integers(0, n_objects))
        node = int(rng.integers(0, n_nodes))
        roll = rng.random()
        if roll < 0.40:
            ops.append(("inform", t, obj, node, int(rng.integers(0, 5)),
                        bool(rng.random() < 0.9)))
        elif roll < 0.62:
            ops.append(("retract", t, obj, node, bool(rng.random() < 0.9)))
        elif roll < 0.92:
            ops.append(("find", t, obj, node))
        else:
            # Probe-found-it-gone flow: a find, then drop one reported
            # holder -- the only order architectures ever use.
            ops.append(("find+drop", t, obj, node))
    return ops


def run_directory_differential(ops: list[tuple], delay: float = 0.0) -> int:
    """Drive both hint directories; compare finds, truth, and counters."""
    production = HintDirectory(None, delay)
    oracle = OracleHintDirectory(delay)
    for index, op in enumerate(ops):
        kind, t, obj = op[0], op[1], op[2]
        if kind == "inform":
            production.inform(t, obj, op[3], op[4], visible=op[5])
            oracle.inform(t, obj, op[3], op[4], visible=op[5])
            continue
        if kind == "retract":
            production.retract(t, obj, op[3], visible=op[4])
            oracle.retract(t, obj, op[3], visible=op[4])
            continue
        requester = op[3]
        got = production.find(t, obj, requester)
        want_holders, want_fn = oracle.find(t, obj, requester)
        if frozenset(got.holders) != want_holders:
            _diverge(
                "directory", index,
                f"find({t:.2f}, {obj}, {requester}): holders "
                f"{sorted(got.holders)} != oracle {sorted(want_holders)}",
            )
        if got.false_negative != want_fn:
            _diverge(
                "directory", index,
                f"find({t:.2f}, {obj}, {requester}): false_negative "
                f"{got.false_negative} != oracle {want_fn}",
            )
        if production.truth_holders(obj) != oracle.truth_holders(obj):
            _diverge(
                "directory", index,
                f"truth for {obj}: {production.truth_holders(obj)} != "
                f"oracle {oracle.truth_holders(obj)}",
            )
        if kind == "find+drop" and got.holders:
            victim = min(got.holders)
            production.drop_visible(obj, victim)
            oracle.drop_visible(t, obj, victim)
    for counter in ("inform_events", "retract_events", "false_negatives", "corrections"):
        if getattr(production, counter) != getattr(oracle, counter):
            _diverge(
                "directory", "end",
                f"{counter} {getattr(production, counter)} != "
                f"oracle {getattr(oracle, counter)}",
            )
    return len(ops)


# ----------------------------------------------------------------------
# engine + data hierarchy
# ----------------------------------------------------------------------
def random_micro_trace(
    rng: np.random.Generator,
    topology: HierarchyTopology,
    n_requests: int = 150,
    n_objects: int = 20,
    duration: float = 1800.0,
    warmup: float = 0.0,
    error_rate: float = 0.06,
    uncachable_rate: float = 0.08,
) -> Trace:
    """A tiny random trace with errors, uncachables, and version churn.

    Deliberately includes requests that are *both* error and uncachable
    -- the class whose double counting the audit exists to catch.
    """
    times = np.sort(rng.uniform(0.0, duration, n_requests))
    sizes = rng.integers(1, 5000, n_objects)
    versions = [0] * n_objects
    requests: list[Request] = []
    for t in times:
        obj = int(rng.integers(0, n_objects))
        if rng.random() < 0.1:
            versions[obj] += 1
        requests.append(
            Request(
                time=float(t),
                client_id=int(rng.integers(0, topology.n_clients_covered)),
                object_id=obj,
                size=int(sizes[obj]),
                version=versions[obj],
                cacheable=bool(rng.random() >= uncachable_rate),
                error=bool(rng.random() < error_rate),
            )
        )
    return Trace(
        profile_name="audit-micro",
        requests=requests,
        n_objects=n_objects,
        n_clients=topology.n_clients_covered,
        duration=duration,
        warmup=warmup,
    )


def random_fault_plan(
    rng: np.random.Generator,
    topology: HierarchyTopology,
    duration: float,
    max_events: int = 4,
) -> FaultPlan:
    """A small random crash/recover/slowdown/degrade schedule."""
    events = []
    for _ in range(int(rng.integers(0, max_events + 1))):
        t = float(rng.uniform(0.0, duration))
        roll = rng.random()
        if roll < 0.35:
            kind = ("l1", "l2", "l3")[int(rng.integers(0, 3))]
            node = int(rng.integers(0, topology.n_l1)) if kind == "l1" else (
                int(rng.integers(0, topology.n_l2)) if kind == "l2" else 0
            )
            events.append(NodeCrash(time=t, kind=kind, node=node))
        elif roll < 0.55:
            kind = ("l1", "l2", "l3")[int(rng.integers(0, 3))]
            node = int(rng.integers(0, topology.n_l1)) if kind == "l1" else (
                int(rng.integers(0, topology.n_l2)) if kind == "l2" else 0
            )
            events.append(NodeRecover(time=t, kind=kind, node=node))
        elif roll < 0.8:
            events.append(OriginSlowdown(time=t, factor=1.0 + float(rng.random()) * 3.0))
        else:
            events.append(LinkDegrade(time=t, latency_mult=1.0 + float(rng.random())))
    return FaultPlan(events=tuple(events), seed=int(rng.integers(0, 2**31)))


def run_engine_differential(
    trace: Trace,
    topology: HierarchyTopology,
    cost_model: CostModel | None = None,
    *,
    l1_bytes: int | None = None,
    l2_bytes: int | None = None,
    l3_bytes: int | None = None,
    fault_plan: FaultPlan | None = None,
    include_uncachable: bool = False,
    warmup_s: float | None = None,
    audit: bool = True,
) -> int:
    """Run production engine + DataHierarchy against the oracle evaluator.

    Compares every measured request's (point, time, fault surcharge,
    flags) and the run-level counters, all exactly.  With ``audit=True``
    (the default) the production run also carries attached
    :class:`~repro.audit.hooks.AuditHooks`, so the runtime invariants
    are checked on the same inputs.
    """
    from repro.hierarchy.data_hierarchy import DataHierarchy
    from repro.obs.sink import SamplingJourneySink
    from repro.sim.engine import run_simulation

    model = cost_model if cost_model is not None else TestbedCostModel()
    architecture = DataHierarchy(topology, model, l1_bytes, l2_bytes, l3_bytes)
    sink = SamplingJourneySink(capacity=None)
    metrics = run_simulation(
        trace,
        architecture,
        warmup_s=warmup_s,
        include_uncachable=include_uncachable,
        fault_plan=fault_plan,
        journey_sink=sink,
        audit=AuditHooks() if audit else None,
        engine="reference",
    )
    expected = oracle_data_hierarchy_run(
        trace,
        topology,
        model,
        l1_bytes=l1_bytes,
        l2_bytes=l2_bytes,
        l3_bytes=l3_bytes,
        warmup_s=warmup_s,
        include_uncachable=include_uncachable,
        fault_plan=fault_plan,
    )

    scalars = (
        ("measured_requests", metrics.measured_requests, expected.measured_requests),
        ("warmup_requests", metrics.warmup_requests, expected.warmup_requests),
        ("skipped_error", metrics.skipped_error, expected.skipped_error),
        ("skipped_uncachable", metrics.skipped_uncachable, expected.skipped_uncachable),
        ("included_error", metrics.included_error, expected.included_error),
        (
            "included_uncachable",
            metrics.included_uncachable,
            expected.included_uncachable,
        ),
        ("total_ms", metrics.total_ms, expected.total_ms),
        (
            "timeout_fallbacks",
            metrics.degraded.timeout_fallbacks,
            expected.timeout_fallbacks,
        ),
        ("fault_added_ms", metrics.degraded.fault_added_ms, expected.fault_added_ms),
    )
    for name, got, want in scalars:
        if got != want:
            _diverge("engine", name, f"production {got!r} != oracle {want!r}")
    if metrics.requests_by_point != expected.requests_by_point:
        _diverge(
            "engine", "requests_by_point",
            f"production {metrics.requests_by_point} != "
            f"oracle {expected.requests_by_point}",
        )

    oracle_measured = expected.measured_records()
    if len(sink.samples) != len(oracle_measured):
        _diverge(
            "engine", "samples",
            f"production emitted {len(sink.samples)} measured journeys, "
            f"oracle {len(oracle_measured)}",
        )
    for (seq, _request, result), record in zip(sink.samples, oracle_measured):
        facets = (
            ("point", result.point, record.point),
            ("time_ms", result.time_ms, record.time_ms),
            ("fault_added_ms", result.fault_added_ms, record.fault_added_ms),
            ("hit", result.hit, record.hit),
            ("remote_hit", result.remote_hit, record.remote_hit),
            ("timeout_fallback", result.timeout_fallback, record.timeout_fallback),
        )
        for name, got, want in facets:
            if got != want:
                _diverge(
                    "engine", f"request {record.index} ({name})",
                    f"production {got!r} != oracle {want!r} (measured seq {seq})",
                )

    # The columnar fast engine faces the same oracle transitively: its
    # metrics must be byte-identical to the audited reference run that
    # the oracle just vetted.  (Audit hooks are inherently per-request,
    # so this equality is how fast outputs pass under the audit gate.)
    fast_metrics = run_simulation(
        trace,
        DataHierarchy(topology, model, l1_bytes, l2_bytes, l3_bytes),
        warmup_s=warmup_s,
        include_uncachable=include_uncachable,
        fault_plan=fault_plan,
        engine="fast",
    )
    if fast_metrics != metrics:
        _diverge(
            "engine", "fast-engine parity",
            "fast engine metrics diverge from the oracle-vetted reference run",
        )
    return 2 * len(trace.requests)
