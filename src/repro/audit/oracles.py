"""Brute-force reference twins of the production components.

Each oracle favors obviousness over speed and shares no data structures
with the implementation it shadows:

* :class:`OracleLRUCache` -- recency as a plain list scanned linearly,
  byte usage recounted from entries on every query (no ``OrderedDict``,
  no incremental accounting);
* :class:`OracleHintDirectory` -- an append-only event log replayed from
  scratch on every query (no heap, no lazily-applied pending queue);
* :func:`oracle_data_hierarchy_run` -- a straight-line re-statement of
  the engine loop and the data hierarchy's healthy and faulted walks.

The differential harness (:mod:`repro.audit.differential`) drives oracle
and production through identical inputs and demands identical outputs --
so a bug has to be made twice, in two different shapes, to go unseen.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cache.lru import LookupResult
from repro.faults.events import (
    FaultPlan,
    HintBatchLoss,
    LinkDegrade,
    NodeCrash,
    NodeKind,
    NodeRecover,
    OriginSlowdown,
    StaleHintDrift,
)
from repro.hierarchy.topology import HierarchyTopology
from repro.netmodel.model import AccessPoint, CostModel
from repro.traces.records import Trace


class OracleLRUCache:
    """List-scan twin of :class:`repro.cache.lru.LRUCache`.

    Entries live in a plain list ordered LRU-first; every operation scans
    it.  ``used_bytes`` is recounted from the entries on each call, so an
    accounting drift in the production cache cannot be mirrored here.
    """

    def __init__(self, capacity_bytes: int | None = None) -> None:
        if capacity_bytes is not None and capacity_bytes < 0:
            raise ValueError(f"capacity must be non-negative, got {capacity_bytes}")
        self.capacity_bytes = capacity_bytes
        self._entries: list[list] = []  # [key, size, version], LRU first
        self.insertions = 0
        self.evictions = 0
        self.invalidations = 0
        self.oversize_rejections: set[int] = set()

    # -- inspection ----------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def keys(self) -> list[int]:
        """Keys in LRU-to-MRU order (the production iteration order)."""
        return [key for key, _size, _version in self._entries]

    @property
    def used_bytes(self) -> int:
        return sum(size for _key, size, _version in self._entries)

    def peek(self, key: int) -> tuple[int, int] | None:
        """``(size, version)`` for ``key`` without touching recency."""
        for entry_key, size, version in self._entries:
            if entry_key == key:
                return size, version
        return None

    def _index(self, key: int) -> int:
        for i, entry in enumerate(self._entries):
            if entry[0] == key:
                return i
        return -1

    # -- mutation ------------------------------------------------------
    def lookup(self, key: int, version: int) -> LookupResult:
        i = self._index(key)
        if i < 0:
            return LookupResult.MISS
        if self._entries[i][2] < version:
            del self._entries[i]
            self.invalidations += 1
            return LookupResult.STALE
        self._entries.append(self._entries.pop(i))
        return LookupResult.HIT

    def insert(self, key: int, size: int, version: int) -> list[int]:
        if size < 0:
            raise ValueError(f"object size must be non-negative, got {size}")
        if self.capacity_bytes is not None and size > self.capacity_bytes:
            i = self._index(key)
            if i >= 0 and self._entries[i][2] < version:
                del self._entries[i]
                self.invalidations += 1
            self.oversize_rejections.add(key)
            return []
        i = self._index(key)
        if i >= 0:
            del self._entries[i]
        self._entries.append([key, size, version])
        self.insertions += 1
        self.oversize_rejections.discard(key)
        evicted: list[int] = []
        if self.capacity_bytes is not None:
            while self.used_bytes > self.capacity_bytes and self._entries:
                victim = self._entries.pop(0)
                self.evictions += 1
                evicted.append(victim[0])
        return evicted

    def touch_lru_demote(self, key: int) -> None:
        i = self._index(key)
        if i >= 0:
            self._entries.insert(0, self._entries.pop(i))

    def invalidate(self, key: int) -> bool:
        i = self._index(key)
        if i < 0:
            return False
        del self._entries[i]
        self.invalidations += 1
        return True

    def remove(self, key: int) -> bool:
        i = self._index(key)
        if i < 0:
            return False
        del self._entries[i]
        return True

    def clear(self) -> list[int]:
        keys = self.keys()
        self._entries = []
        return keys


class OracleHintDirectory:
    """Event-log twin of :class:`repro.hints.directory.HintDirectory`.

    Every inform/retract/drop is appended to a log; each query replays
    the whole log from scratch.  Visible inform/retract events take
    effect ``propagation_delay_s`` after issue; drops (the probe-found-
    it-gone correction) take effect at issue time.  Only the unbounded
    configuration is modelled -- bounded displacement is an
    implementation concern the differential harness exercises through
    the set-associative cache's own oracle-free tests.
    """

    def __init__(self, propagation_delay_s: float = 0.0) -> None:
        if propagation_delay_s < 0:
            raise ValueError(f"delay must be non-negative, got {propagation_delay_s}")
        self.propagation_delay_s = propagation_delay_s
        # (effective_time, seq, action, object_id, node, version)
        self._log: list[tuple[float, int, str, int, int, int]] = []
        self._seq = 0
        self.inform_events = 0
        self.retract_events = 0
        self.false_negatives = 0
        self.corrections = 0

    def _append(self, eff_time: float, action: str, obj: int, node: int, version: int) -> None:
        self._log.append((eff_time, self._seq, action, obj, node, version))
        self._seq += 1

    def inform(
        self, now: float, object_id: int, node: int, version: int, *, visible: bool = True
    ) -> None:
        self.inform_events += 1
        self._append(now, "truth_add", object_id, node, version)
        if visible:
            self._append(now + self.propagation_delay_s, "add", object_id, node, version)

    def retract(self, now: float, object_id: int, node: int, *, visible: bool = True) -> None:
        self.retract_events += 1
        self._append(now, "truth_remove", object_id, node, -1)
        if visible:
            self._append(now + self.propagation_delay_s, "remove", object_id, node, -1)

    def drop_visible(self, now: float, object_id: int, node: int) -> None:
        """Correction at ``now``; callers query first, as architectures do."""
        if node in self._visible_at(now).get(object_id, set()):
            self.corrections += 1
        self._append(now, "drop", object_id, node, -1)

    # -- replayed views ------------------------------------------------
    def truth_holders(self, object_id: int) -> dict[int, int]:
        truth: dict[int, int] = {}
        for _t, _seq, action, obj, node, version in sorted(self._log):
            if obj != object_id:
                continue
            if action == "truth_add":
                truth[node] = version
            elif action == "truth_remove":
                truth.pop(node, None)
        return truth

    def _visible_at(self, now: float) -> dict[int, set[int]]:
        visible: dict[int, set[int]] = {}
        for eff_time, _seq, action, obj, node, _version in sorted(self._log):
            if eff_time > now:
                continue
            if action == "add":
                visible.setdefault(obj, set()).add(node)
            elif action in ("remove", "drop"):
                holders = visible.get(obj)
                if holders is not None:
                    holders.discard(node)
                    if not holders:
                        del visible[obj]
        return visible

    def find(self, now: float, object_id: int, requester: int) -> tuple[frozenset, bool]:
        """``(holders, false_negative)`` -- holders exclude the requester."""
        visible = self._visible_at(now).get(object_id, set())
        holders = frozenset(n for n in visible if n != requester)
        truth = self.truth_holders(object_id)
        others_exist = any(n != requester for n in truth)
        false_negative = not holders and others_exist
        if false_negative:
            self.false_negatives += 1
        return holders, false_negative


# ----------------------------------------------------------------------
# naive single-architecture evaluator (the engine + DataHierarchy twin)
# ----------------------------------------------------------------------
@dataclass
class OracleRequestRecord:
    """One processed request's outcome, as the oracle evaluated it."""

    index: int  # position in the trace
    point: AccessPoint
    time_ms: float
    fault_added_ms: float
    hit: bool
    remote_hit: bool
    timeout_fallback: bool
    measured: bool


@dataclass
class OracleRunResult:
    """Everything the oracle evaluator produced for one run."""

    records: list[OracleRequestRecord] = field(default_factory=list)
    measured_requests: int = 0
    warmup_requests: int = 0
    skipped_error: int = 0
    skipped_uncachable: int = 0
    included_error: int = 0
    included_uncachable: int = 0
    total_ms: float = 0.0
    requests_by_point: dict = field(
        default_factory=lambda: {p: 0 for p in AccessPoint}
    )
    timeout_fallbacks: int = 0
    fault_added_ms: float = 0.0

    def measured_records(self) -> list[OracleRequestRecord]:
        return [r for r in self.records if r.measured]


def oracle_data_hierarchy_run(
    trace: Trace,
    topology: HierarchyTopology,
    cost_model: CostModel,
    *,
    l1_bytes: int | None = None,
    l2_bytes: int | None = None,
    l3_bytes: int | None = None,
    warmup_s: float | None = None,
    include_uncachable: bool = False,
    fault_plan: "FaultPlan | None" = None,
) -> OracleRunResult:
    """Re-evaluate a data-hierarchy run with none of the engine's machinery.

    A straight transliteration of what *should* happen, built on the
    oracle caches: the clock advances every request (skipped or not),
    error requests take precedence over uncachable ones, warmup counts
    but is not measured, and the faulted walk mirrors the production
    charging rules (timeout + degraded origin fetch on a dead parent).
    """
    boundary = trace.warmup if warmup_s is None else warmup_s
    l1s = [OracleLRUCache(l1_bytes) for _ in range(topology.n_l1)]
    l2s = [OracleLRUCache(l2_bytes) for _ in range(topology.n_l2)]
    l3 = OracleLRUCache(l3_bytes)

    faulted_mode = fault_plan is not None and len(fault_plan.events) > 0
    events = list(fault_plan.events) if faulted_mode else []
    next_event = 0
    down: set[tuple[NodeKind, int]] = set()
    latency_mult = 1.0
    origin_factor = 1.0
    out = OracleRunResult()

    def serve(request) -> tuple[AccessPoint, float, float, bool, bool, bool]:
        """(point, time_ms, fault_ms, hit, remote_hit, timeout_fallback)."""
        l1_index = topology.l1_of_client(request.client_id)
        l2_index = topology.l2_of_l1(l1_index)
        l1, l2 = l1s[l1_index], l2s[l2_index]
        oid, version, size = request.object_id, request.version, request.size

        def degraded(point: AccessPoint, *, origin: bool) -> tuple[float, float]:
            base = cost_model.hierarchical_ms(point, size)
            charged = base * latency_mult
            if origin:
                charged *= origin_factor
            return charged, charged - base

        def fallback() -> tuple[AccessPoint, float, float, bool, bool, bool]:
            charged, added = degraded(AccessPoint.SERVER, origin=True)
            time_ms = fault_plan.timeout_ms + charged
            fault_ms = fault_plan.timeout_ms + added
            return AccessPoint.SERVER, time_ms, fault_ms, False, False, True

        if not faulted_mode:
            if l1.lookup(oid, version) is LookupResult.HIT:
                point = AccessPoint.L1
            elif l2.lookup(oid, version) is LookupResult.HIT:
                l1.insert(oid, size, version)
                point = AccessPoint.L2
            elif l3.lookup(oid, version) is LookupResult.HIT:
                l2.insert(oid, size, version)
                l1.insert(oid, size, version)
                point = AccessPoint.L3
            else:
                l3.insert(oid, size, version)
                l2.insert(oid, size, version)
                l1.insert(oid, size, version)
                point = AccessPoint.SERVER
            time_ms = cost_model.hierarchical_ms(point, size)
            hit = point is not AccessPoint.SERVER
            return point, time_ms, 0.0, hit, point not in (
                AccessPoint.L1, AccessPoint.SERVER
            ), False

        if (NodeKind.L1, l1_index) in down:
            return fallback()
        if l1.lookup(oid, version) is LookupResult.HIT:
            charged, added = degraded(AccessPoint.L1, origin=False)
            return AccessPoint.L1, charged, added, True, False, False
        if (NodeKind.L2, l2_index) in down:
            l1.insert(oid, size, version)
            return fallback()
        if l2.lookup(oid, version) is LookupResult.HIT:
            l1.insert(oid, size, version)
            charged, added = degraded(AccessPoint.L2, origin=False)
            return AccessPoint.L2, charged, added, True, True, False
        if (NodeKind.L3, 0) in down:
            l2.insert(oid, size, version)
            l1.insert(oid, size, version)
            return fallback()
        if l3.lookup(oid, version) is LookupResult.HIT:
            l2.insert(oid, size, version)
            l1.insert(oid, size, version)
            charged, added = degraded(AccessPoint.L3, origin=False)
            return AccessPoint.L3, charged, added, True, True, False
        l3.insert(oid, size, version)
        l2.insert(oid, size, version)
        l1.insert(oid, size, version)
        charged, added = degraded(AccessPoint.SERVER, origin=True)
        return AccessPoint.SERVER, charged, added, False, False, False

    for index, request in enumerate(trace.requests):
        # The clock advances for every request, skipped or not.
        while next_event < len(events) and events[next_event].time <= request.time:
            event = events[next_event]
            next_event += 1
            if isinstance(event, NodeCrash):
                key = (NodeKind(event.kind), event.node)
                if key not in down:
                    down.add(key)
                    kind, node = key
                    if kind is NodeKind.L1 and node < len(l1s):
                        l1s[node].clear()
                    elif kind is NodeKind.L2 and node < len(l2s):
                        l2s[node].clear()
                    elif kind is NodeKind.L3:
                        l3.clear()
            elif isinstance(event, NodeRecover):
                down.discard((NodeKind(event.kind), event.node))
            elif isinstance(event, OriginSlowdown):
                origin_factor = event.factor
            elif isinstance(event, LinkDegrade):
                latency_mult = event.latency_mult
            elif isinstance(event, (HintBatchLoss, StaleHintDrift)):
                pass  # no hint metadata in a data hierarchy

        # Error takes precedence over uncachable; either counts exactly once.
        if request.error:
            if not include_uncachable:
                out.skipped_error += 1
                continue
            out.included_error += 1
        elif not request.cacheable:
            if not include_uncachable:
                out.skipped_uncachable += 1
                continue
            out.included_uncachable += 1

        point, time_ms, fault_ms, hit, remote, timed_out = serve(request)
        measured = request.time >= boundary
        out.records.append(
            OracleRequestRecord(
                index=index,
                point=point,
                time_ms=time_ms,
                fault_added_ms=fault_ms,
                hit=hit,
                remote_hit=remote,
                timeout_fallback=timed_out,
                measured=measured,
            )
        )
        if not measured:
            out.warmup_requests += 1
            continue
        out.measured_requests += 1
        out.total_ms += time_ms
        out.requests_by_point[point] += 1
        if timed_out:
            out.timeout_fallbacks += 1
        out.fault_added_ms += fault_ms
    return out
