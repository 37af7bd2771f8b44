"""The paper's architecture: location hints + direct cache-to-cache transfer.

Data lives only at L1 proxy caches.  On a local miss the proxy consults its
hint cache (a local, microsecond operation -- hint propagation happens in
the background); a hint sends the request straight to the peer cache
holding the nearest copy, which returns the data in a single
cache-to-cache hop; no hint sends the request straight to the origin
server.  This satisfies all of: minimize hops, don't slow down misses, and
share data among many caches.

Hint pathologies are modelled per section 3.1.1:

* *false positive* -- the probed peer no longer holds the object (or holds
  a stale version): the peer replies with an error and the request goes to
  the server; no second hint lookup is attempted.
* *false negative* -- the hint cache knows no copy although one exists:
  priced exactly like a plain miss.
* *suboptimal positive* -- a farther peer is named although a nearer one
  has the object: still a hit, charged at the farther distance class.

Push policies (section 4) hook the two fetch events; the ``charge_remote_
as_l1`` flag implements the ideal-push upper bound (every remote hit is
charged as a local hit and the replicas consume no space).
"""

from __future__ import annotations

import weakref

from repro.cache.lru import CacheEntry, LookupResult
from repro.cache.policy import PolicySpec
from repro.hierarchy.base import AccessResult, Architecture, build_l1_caches
from repro.hierarchy.topology import HierarchyTopology
from repro.hints.directory import HintDirectory
from repro.netmodel.model import AccessPoint, CostModel
from repro.obs.journey import Journey
from repro.push.base import PushPolicy, PushStats
from repro.traces.records import Request


class HintHierarchy(Architecture):
    """Hint-directory architecture with direct cache-to-cache transfers.

    Args:
        topology: Client / L1 / L2 / L3 grouping (the metadata hierarchy
            follows the same shape).
        cost_model: Access-time parameterization.
        l1_bytes: Per-proxy data-cache capacity (``None`` = infinite).
        hint_capacity_bytes: Hint-cache capacity at 16 bytes/entry
            (``None`` = unbounded; Figure 5 sweeps this).
        hint_delay_s: Hint propagation delay (Figure 6 sweeps this).
        push_policy: Optional push policy (section 4).
        charge_remote_as_l1: Ideal-push accounting -- remote hits are
            charged as L1 hits (section 4.1.1's best case).
        l1_policy: Replacement policy for the per-proxy data caches
            (:class:`~repro.cache.policy.PolicySpec`; default LRU).
    """

    name = "hints"

    def __init__(
        self,
        topology: HierarchyTopology,
        cost_model: CostModel,
        l1_bytes: int | None = None,
        hint_capacity_bytes: int | None = None,
        hint_delay_s: float = 0.0,
        push_policy: PushPolicy | None = None,
        charge_remote_as_l1: bool = False,
        l1_policy: PolicySpec | None = None,
    ) -> None:
        super().__init__(cost_model)
        self.topology = topology
        self.directory = HintDirectory(
            capacity_bytes=hint_capacity_bytes,
            propagation_delay_s=hint_delay_s,
        )
        self.push_policy = push_policy
        self.push_stats = PushStats()
        self.charge_remote_as_l1 = charge_remote_as_l1
        if charge_remote_as_l1:
            self.name = "hints-ideal-push"
        elif push_policy is not None:
            self.name = f"hints+{push_policy.name}"

        self._now = 0.0
        self._base_hint_delay_s = hint_delay_s
        # (node, object) -> pushed version, for replicas awaiting first use.
        self._pending_push: dict[tuple[int, int], int] = {}
        self.l1_caches = build_l1_caches(
            topology.n_l1,
            l1_bytes,
            eviction_callback=self._eviction_callback,
            policy=l1_policy,
        )

    # ------------------------------------------------------------------
    # request processing
    # ------------------------------------------------------------------
    def process(self, request: Request) -> AccessResult:
        if self.audit is not None:
            self.audit.checkpoint(self)
        if self.faults is not None:
            return self._process_faulted(request)
        self._now = request.time
        l1_index = self.topology.l1_of_client(request.client_id)
        cache = self.l1_caches[l1_index]
        oid, version, size = request.object_id, request.version, request.size

        local = cache.lookup(oid, version)
        if local is LookupResult.HIT:
            journey = Journey()
            journey.local_lookup(
                self.cost_model.via_l1_ms(AccessPoint.L1, size),
                target=f"l1:{l1_index}",
            )
            if self._consume_push_mark(l1_index, oid, version):
                journey.mark_push_hit()
            return journey.result(AccessPoint.L1, hit=True)
        local_had_stale = local is LookupResult.STALE

        lookup = self.directory.find(self._now, oid, l1_index)
        holder = self._nearest_holder(lookup.holders, l1_index)
        # Snapshot stale holders *before* any probe: a probed cache that
        # finds itself stale invalidates on the spot, but it remains an
        # update-push candidate (the paper's "recently invalidated" list).
        stale_holders = {
            node: held
            for node, held in self.directory.truth_holders(oid).items()
            if held < version and node != l1_index
        }

        if holder is not None:
            point = self.topology.distance_class(l1_index, holder)
            remote = self.l1_caches[holder].lookup(oid, version)
            if remote is LookupResult.HIT:
                return self._remote_hit(request, l1_index, holder, point)
            # The advertised copy is gone or stale: a false positive.  The
            # probed cache replies with an error; go straight to the server.
            self.directory.record_false_positive()
            return self._server_fetch(
                request, l1_index, local_had_stale, stale_holders,
                probe_ms=self.cost_model.probe_ms(point),
                probe_target=f"l1:{holder}",
                false_positive=True,
            )

        return self._server_fetch(
            request, l1_index, local_had_stale, stale_holders,
            false_negative=lookup.false_negative,
        )

    # ------------------------------------------------------------------
    # degraded mode (active only when a FaultInjector is attached)
    # ------------------------------------------------------------------
    def on_fault_crash(self, kind, node: int) -> None:
        """An L1 proxy dies without a goodbye.

        Its data is gone (ground truth updated) but the retractions were
        never sent (``visible=False``), so every hint cache keeps
        advertising the dead node's holdings -- the paper's "stale but
        never wrong" hints become plain wrong until probes discover the
        corpse.  Metadata-node crashes need no state change here; they
        suppress hint visibility on the request path instead.
        """
        from repro.faults.events import NodeKind

        if kind is NodeKind.L1 and node < len(self.l1_caches):
            for key in self.l1_caches[node].clear():
                self.directory.retract(self._now, key, node, visible=False)
                self._pending_push.pop((node, key), None)

    def _meta_node_of(self, l1_index: int) -> int:
        """Metadata-hierarchy node relaying hint updates for this proxy.

        The metadata hierarchy follows the data topology's shape, so the
        interior node covering an L1 proxy is its L2 group index.
        """
        return self.topology.l2_of_l1(l1_index)

    def _process_faulted(self, request: Request) -> AccessResult:
        """The hint walk under faults.

        The structural claim under test (section 5's availability
        argument): hints keep working when nodes die, because any live
        peer or the origin server remains reachable without a fixed
        chain of parents.  The costs of degradation are wasted forwards
        to dead holders (timeout, counted as ``stale_hint_forward``) and
        eroding hint coverage (lost batches and dead metadata nodes make
        stores invisible, so future lookups miss straight to the server
        -- slower, never wrong).

        Push policies and the ideal-push accounting are not exercised in
        degraded mode; fault experiments run the plain hint architecture.
        """
        faults = self.faults
        assert faults is not None
        self._now = request.time
        # StaleHintDrift: extra visibility lag on top of the configured
        # propagation delay, applied to every event scheduled from now on.
        self.directory.propagation_delay_s = (
            self._base_hint_delay_s + faults.hint_delay_skew_s
        )
        l1_index = self.topology.l1_of_client(request.client_id)
        oid, version, size = request.object_id, request.version, request.size
        cost = self.cost_model

        if faults.is_down("l1", l1_index):
            # The client's own proxy is dead: wait out the timeout, then
            # fetch from the origin directly.  Nothing is cached.
            faults.note_dead_probe()
            charged, added = faults.degraded_ms(
                cost.via_l1_ms(AccessPoint.SERVER, size), origin=True
            )
            journey = Journey()
            journey.timeout(faults.timeout_ms, target=f"l1:{l1_index}")
            journey.origin_fetch(charged, fault_ms=added)
            return journey.result(AccessPoint.SERVER, hit=False)

        cache = self.l1_caches[l1_index]
        if cache.lookup(oid, version) is LookupResult.HIT:
            charged, added = faults.degraded_ms(cost.via_l1_ms(AccessPoint.L1, size))
            journey = Journey()
            journey.local_lookup(charged, target=f"l1:{l1_index}", fault_ms=added)
            return journey.result(AccessPoint.L1, hit=True)

        lookup = self.directory.find(self._now, oid, l1_index)
        holder = self._nearest_holder(lookup.holders, l1_index)

        if holder is not None and faults.is_down("l1", holder):
            # A stale hint forwarded the request to a crashed peer: the
            # probe times out, the requester discards the bad hint, and
            # the request completes at the origin server.
            faults.note_dead_probe()
            self.directory.drop_visible(oid, holder)
            self.directory.record_false_positive()
            self._store_faulted(l1_index, request)
            charged, added = faults.degraded_ms(
                cost.via_l1_ms(AccessPoint.SERVER, size), origin=True
            )
            journey = Journey()
            journey.hint_lookup(cost.hint_lookup_ms(), target=f"l1:{holder}")
            journey.timeout(faults.timeout_ms, target=f"l1:{holder}", stale=True)
            journey.mark_false_positive()
            journey.origin_fetch(charged, fault_ms=added)
            return journey.result(AccessPoint.SERVER, hit=False)

        if holder is not None:
            point = self.topology.distance_class(l1_index, holder)
            if self.l1_caches[holder].lookup(oid, version) is LookupResult.HIT:
                suboptimal = any(
                    held >= version
                    and node != l1_index
                    and self.topology.distance_class(l1_index, node) < point
                    for node, held in self.directory.truth_holders(oid).items()
                )
                self._store_faulted(l1_index, request)
                charged, added = faults.degraded_ms(cost.via_l1_ms(point, size))
                journey = Journey()
                journey.hint_lookup(cost.hint_lookup_ms(), target=f"l1:{holder}")
                journey.transfer(charged, target=f"l1:{holder}", fault_ms=added)
                if suboptimal:
                    journey.mark_suboptimal()
                return journey.result(point, hit=True, remote_hit=True)
            # Ordinary false positive: the live peer no longer holds the
            # object (or invalidated a stale copy); wasted probe, then
            # the origin server.
            self.directory.record_false_positive()
            probe_ms, probe_added = faults.degraded_ms(cost.probe_ms(point))
            self._store_faulted(l1_index, request)
            charged, added = faults.degraded_ms(
                cost.via_l1_ms(AccessPoint.SERVER, size), origin=True
            )
            journey = Journey()
            journey.hint_lookup(cost.hint_lookup_ms(), target=f"l1:{holder}")
            journey.peer_probe(
                probe_ms, target=f"l1:{holder}", fault_ms=probe_added, wasted=True
            )
            journey.mark_false_positive()
            journey.origin_fetch(charged, fault_ms=added)
            return journey.result(AccessPoint.SERVER, hit=False)

        self._store_faulted(l1_index, request)
        charged, added = faults.degraded_ms(
            cost.via_l1_ms(AccessPoint.SERVER, size), origin=True
        )
        journey = Journey()
        journey.hint_lookup(cost.hint_lookup_ms())
        if lookup.false_negative:
            journey.mark_false_negative()
        journey.origin_fetch(charged, fault_ms=added)
        return journey.result(AccessPoint.SERVER, hit=False)

    def _store_faulted(self, l1_index: int, request: Request) -> None:
        """Store a demand copy; the hint announcement may be lost in flight.

        The copy always lands in the data cache (ground truth), but the
        inform is invisible when the seeded batch-loss draw says so or
        when the metadata node relaying this proxy's updates is down --
        either way the system accrues future false negatives, never
        incorrect data.
        """
        faults = self.faults
        self.l1_caches[l1_index].insert(
            request.object_id, request.size, request.version
        )
        dropped = faults.hint_update_dropped()
        visible = not dropped and not faults.is_down("meta", self._meta_node_of(l1_index))
        self.directory.inform(
            self._now, request.object_id, l1_index, request.version, visible=visible
        )

    # ------------------------------------------------------------------
    # hit / miss paths
    # ------------------------------------------------------------------
    def _remote_hit(
        self, request: Request, l1_index: int, holder: int, point: AccessPoint
    ) -> AccessResult:
        size = request.size
        charged_point = AccessPoint.L1 if self.charge_remote_as_l1 else point
        # Section 3.1.1's third hint error: a closer cache also held a
        # current copy but the (stale or displaced) hint view named a
        # farther one.  Still a hit, charged at the farther distance.
        suboptimal = any(
            held >= request.version
            and node != l1_index
            and self.topology.distance_class(l1_index, node) < point
            for node, held in self.directory.truth_holders(request.object_id).items()
        )
        self.push_stats.note_time(self._now)
        self.push_stats.demand_bytes += size
        if not self.charge_remote_as_l1:
            # The requester keeps a demand copy (the ideal-push bound skips
            # this so extra replicas never consume disk space).
            self._store(l1_index, request)
        if self.push_policy is not None:
            targets = self.push_policy.on_remote_fetch(
                now=self._now,
                size=size,
                requester_l1=l1_index,
                source_l1=holder,
                lca_level=int(point),
            )
            self._apply_pushes(targets, request.object_id, size, request.version)
        journey = Journey()
        journey.hint_lookup(self.cost_model.hint_lookup_ms(), target=f"l1:{holder}")
        journey.transfer(
            self.cost_model.via_l1_ms(charged_point, size), target=f"l1:{holder}"
        )
        if suboptimal:
            journey.mark_suboptimal()
        return journey.result(charged_point, hit=True, remote_hit=True)

    def _server_fetch(
        self,
        request: Request,
        l1_index: int,
        local_had_stale: bool,
        stale_holders: dict[int, int],
        *,
        probe_ms: float = 0.0,
        probe_target: str = "",
        false_positive: bool = False,
        false_negative: bool = False,
    ) -> AccessResult:
        size = request.size
        communication_miss = local_had_stale or bool(stale_holders)
        self.push_stats.note_time(self._now)
        self.push_stats.demand_bytes += size
        self._store(l1_index, request)
        if self.push_policy is not None:
            targets = self.push_policy.on_server_fetch(
                now=self._now,
                size=size,
                requester_l1=l1_index,
                communication_miss=communication_miss,
                stale_holders=stale_holders,
            )
            self._apply_pushes(targets, request.object_id, size, request.version)
        journey = Journey()
        journey.hint_lookup(self.cost_model.hint_lookup_ms())
        if false_positive:
            journey.peer_probe(probe_ms, target=probe_target, wasted=True)
            journey.mark_false_positive()
        if false_negative:
            journey.mark_false_negative()
        journey.origin_fetch(self.cost_model.via_l1_ms(AccessPoint.SERVER, size))
        return journey.result(AccessPoint.SERVER, hit=False)

    # ------------------------------------------------------------------
    # storage and hint bookkeeping
    # ------------------------------------------------------------------
    def _store(self, l1_index: int, request: Request) -> None:
        """Cache a demand copy at the requester's proxy and advertise it."""
        self.l1_caches[l1_index].insert(
            request.object_id, request.size, request.version
        )
        self.directory.inform(
            self._now, request.object_id, l1_index, request.version
        )

    def _apply_pushes(
        self, targets: list[int], object_id: int, size: int, version: int
    ) -> None:
        """Store the fetched object at each target a push policy named."""
        age = self.push_policy.age_pushed_entries
        caches, inform, now = self.l1_caches, self.directory.inform, self._now
        pushed = 0
        for node in targets:
            cache = caches[node]
            existing = cache.peek(object_id)
            if existing is not None and existing.version >= version:
                self.push_stats.skipped_count += 1
                continue
            cache.insert(object_id, size, version)
            if age:
                # Update-push aging: repeatedly-updated-but-unread objects
                # drift toward eviction instead of staying hot.
                cache.touch_lru_demote(object_id)
            inform(now, object_id, node, version)
            self._pending_push[(node, object_id)] = version
            pushed += 1
        self.push_stats.pushed_count += pushed
        self.push_stats.pushed_bytes += pushed * size

    def _consume_push_mark(self, node: int, oid: int, version: int) -> bool:
        pushed_version = self._pending_push.pop((node, oid), None)
        if pushed_version is None or pushed_version < version:
            return False
        self.push_stats.used_count += 1
        entry = self.l1_caches[node].peek(oid)
        self.push_stats.used_bytes += entry.size if entry is not None else 0
        return True

    def _eviction_callback(self, node: int):
        # A weak proxy: the caches this callback is installed in belong to
        # the architecture, so a strong reference would make it a cycle.
        arch = weakref.proxy(self)

        def on_evict(key: int, entry: CacheEntry, reason: str) -> None:
            arch.directory.retract(arch._now, key, node)
            pushed_version = arch._pending_push.pop((node, key), None)
            if pushed_version is not None:
                arch.push_stats.wasted_count += 1
                arch.push_stats.wasted_bytes += entry.size

        return on_evict

    def _nearest_holder(self, holders: tuple[int, ...], requester: int) -> int | None:
        if not holders:
            return None
        return min(
            holders,
            key=lambda h: (int(self.topology.distance_class(requester, h)), h),
        )
