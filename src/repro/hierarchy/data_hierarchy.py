"""The traditional three-level data-cache hierarchy (the paper's baseline).

Data access proceeds exactly as section 2.1 describes: the request walks up
the hierarchy level by level until some cache holds the data (or the root
fetches from the origin server), and the object is copied into every cache
on the way back down.  Response time is the store-and-forward hierarchical
time of the deepest level reached.

Consistency is invalidation-based: a cache that finds it holds an older
version than the request wants invalidates the copy and the walk continues
upward (the paper's strong-consistency assumption).

Under fault injection (:mod:`repro.faults`) the hierarchy shows its
structural weakness: every request *must* route through its fixed chain of
parents, so a dead L2 or L3 costs a full timeout before the proxy falls
back to the origin server, and the crashed cache comes back empty -- the
whole subtree re-faults its working set.
"""

from __future__ import annotations

from repro.cache.lru import LookupResult
from repro.cache.policy import DEFAULT_POLICY, PolicySpec
from repro.hierarchy.base import AccessResult, Architecture, build_l1_caches
from repro.hierarchy.topology import HierarchyTopology
from repro.netmodel.model import AccessPoint, CostModel
from repro.obs.journey import Journey
from repro.traces.records import Request

#: Journey step appender per access point (the hierarchy's fixed chain):
#: an L1 hit is a local lookup, deeper hits are store-and-forward walks,
#: and a miss is an origin fetch.
_POINT_STEP = {
    AccessPoint.L1: Journey.local_lookup,
    AccessPoint.L2: Journey.level_traversal,
    AccessPoint.L3: Journey.level_traversal,
}


class DataHierarchy(Architecture):
    """Harvest/Squid-style hierarchy of data caches.

    Args:
        topology: Client / L1 / L2 / L3 grouping.
        cost_model: Access-time parameterization.
        l1_bytes / l2_bytes / l3_bytes: Per-cache capacities; ``None`` is
            infinite (the paper's Figure 8(a) configuration).  The
            space-constrained configuration of Figure 8(b) gives every node
            in the data hierarchy 5 GB.
        l1_policy / l2_policy / l3_policy: Per-level replacement policies
            (:class:`~repro.cache.policy.PolicySpec`); ``None`` keeps the
            paper's LRU at that level.  Policies only change behaviour
            under capacity pressure -- unbounded levels never evict.
    """

    name = "hierarchy"

    def __init__(
        self,
        topology: HierarchyTopology,
        cost_model: CostModel,
        l1_bytes: int | None = None,
        l2_bytes: int | None = None,
        l3_bytes: int | None = None,
        l1_policy: PolicySpec | None = None,
        l2_policy: PolicySpec | None = None,
        l3_policy: PolicySpec | None = None,
    ) -> None:
        super().__init__(cost_model)
        self.topology = topology
        self.l1_caches = build_l1_caches(topology.n_l1, l1_bytes, policy=l1_policy)
        l2_spec = l2_policy if l2_policy is not None else DEFAULT_POLICY
        l3_spec = l3_policy if l3_policy is not None else DEFAULT_POLICY
        # Salts continue past the L1 node indices so no two caches of one
        # architecture share a Random victim stream.
        self.l2_caches = [
            l2_spec.build(l2_bytes, salt=topology.n_l1 + node)
            for node in range(topology.n_l2)
        ]
        self.l3_cache = l3_spec.build(
            l3_bytes, salt=topology.n_l1 + topology.n_l2
        )

    def process(self, request: Request) -> AccessResult:
        if self.audit is not None:
            self.audit.checkpoint(self)
        if self.faults is not None:
            return self._process_faulted(request)
        l1_index = self.topology.l1_of_client(request.client_id)
        l2_index = self.topology.l2_of_l1(l1_index)
        l1 = self.l1_caches[l1_index]
        l2 = self.l2_caches[l2_index]
        l3 = self.l3_cache
        oid, version, size = request.object_id, request.version, request.size

        if l1.lookup(oid, version) is LookupResult.HIT:
            journey = Journey()
            journey.local_lookup(
                self.cost_model.hierarchical_ms(AccessPoint.L1, size),
                target=f"l1:{l1_index}",
            )
            return journey.result(AccessPoint.L1, hit=True)

        if l2.lookup(oid, version) is LookupResult.HIT:
            l1.insert(oid, size, version)
            journey = Journey()
            journey.level_traversal(
                self.cost_model.hierarchical_ms(AccessPoint.L2, size),
                target=f"l2:{l2_index}",
            )
            return journey.result(AccessPoint.L2, hit=True, remote_hit=True)

        if l3.lookup(oid, version) is LookupResult.HIT:
            l2.insert(oid, size, version)
            l1.insert(oid, size, version)
            journey = Journey()
            journey.level_traversal(
                self.cost_model.hierarchical_ms(AccessPoint.L3, size), target="l3"
            )
            return journey.result(AccessPoint.L3, hit=True, remote_hit=True)

        # Full miss: the root fetches from the origin server and the object
        # is cached at every level on the way down.
        l3.insert(oid, size, version)
        l2.insert(oid, size, version)
        l1.insert(oid, size, version)
        journey = Journey()
        journey.origin_fetch(self.cost_model.hierarchical_ms(AccessPoint.SERVER, size))
        return journey.result(AccessPoint.SERVER, hit=False)

    # ------------------------------------------------------------------
    # degraded mode (active only when a FaultInjector is attached)
    # ------------------------------------------------------------------
    def on_fault_crash(self, kind, node: int) -> None:
        """A cache node dies: its contents are gone when it recovers."""
        from repro.faults.events import NodeKind

        if kind is NodeKind.L1 and node < len(self.l1_caches):
            self.l1_caches[node].clear()
        elif kind is NodeKind.L2 and node < len(self.l2_caches):
            self.l2_caches[node].clear()
        elif kind is NodeKind.L3:
            self.l3_cache.clear()

    def _process_faulted(self, request: Request) -> AccessResult:
        """The walk-up with dead parents: timeout, then fall back to origin.

        Charging rule: a timeout fallback pays the dead node's timeout
        plus the *full* hierarchical miss charge (the request waited at
        the dead level, then completed as a worst-case origin fetch), so
        a faulted request is never cheaper than its healthy counterpart.
        Dead caches are neither read nor written -- their subtree refills
        only after recovery.
        """
        faults = self.faults
        assert faults is not None
        l1_index = self.topology.l1_of_client(request.client_id)
        l2_index = self.topology.l2_of_l1(l1_index)
        oid, version, size = request.object_id, request.version, request.size

        if faults.is_down("l1", l1_index):
            # The client's own proxy is dead: wait out the timeout, then
            # fetch from the origin directly.  Nothing is cached.
            faults.note_dead_probe()
            return self._fallback_result(size, target=f"l1:{l1_index}")

        l1 = self.l1_caches[l1_index]
        if l1.lookup(oid, version) is LookupResult.HIT:
            return self._degraded_result(
                AccessPoint.L1, size, hit=True, remote=False, target=f"l1:{l1_index}"
            )

        if faults.is_down("l2", l2_index):
            faults.note_dead_probe()
            l1.insert(oid, size, version)
            return self._fallback_result(size, target=f"l2:{l2_index}")

        l2 = self.l2_caches[l2_index]
        if l2.lookup(oid, version) is LookupResult.HIT:
            l1.insert(oid, size, version)
            return self._degraded_result(
                AccessPoint.L2, size, hit=True, remote=True, target=f"l2:{l2_index}"
            )

        if faults.is_down("l3", 0):
            faults.note_dead_probe()
            l2.insert(oid, size, version)
            l1.insert(oid, size, version)
            return self._fallback_result(size, target="l3")

        l3 = self.l3_cache
        if l3.lookup(oid, version) is LookupResult.HIT:
            l2.insert(oid, size, version)
            l1.insert(oid, size, version)
            return self._degraded_result(
                AccessPoint.L3, size, hit=True, remote=True, target="l3"
            )

        l3.insert(oid, size, version)
        l2.insert(oid, size, version)
        l1.insert(oid, size, version)
        return self._degraded_result(
            AccessPoint.SERVER, size, hit=False, remote=False, origin=True
        )

    def _degraded_result(
        self,
        point: AccessPoint,
        size: int,
        *,
        hit: bool,
        remote: bool,
        target: str = "",
        origin: bool = False,
    ) -> AccessResult:
        charged, added = self.faults.degraded_ms(
            self.cost_model.hierarchical_ms(point, size), origin=origin
        )
        journey = Journey()
        if point is AccessPoint.SERVER:
            journey.origin_fetch(charged, fault_ms=added)
        else:
            _POINT_STEP[point](journey, charged, target=target, fault_ms=added)
        return journey.result(point, hit=hit, remote_hit=remote)

    def _fallback_result(self, size: int, *, target: str) -> AccessResult:
        faults = self.faults
        charged, added = faults.degraded_ms(
            self.cost_model.hierarchical_ms(AccessPoint.SERVER, size), origin=True
        )
        journey = Journey()
        journey.timeout(faults.timeout_ms, target=target)
        journey.origin_fetch(charged, fault_ms=added)
        return journey.result(AccessPoint.SERVER, hit=False)
