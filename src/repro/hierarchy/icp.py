"""ICP-style sibling-query hierarchy (ablation baseline).

The Internet Cache Protocol (Wessels & Claffy, RFC 2186) lets a cache
multicast a query to its neighbors before forwarding a miss to its parent.
The paper's testbed deliberately ran *without* ICP ("we are interested in
the best costs for traversing a hierarchy"), and its related-work section
argues that multicast queries either limit sharing to nearby nodes or add
hops.  This architecture makes that argument measurable: it is a
:class:`~repro.hierarchy.data_hierarchy.DataHierarchy` whose L1 proxies
first query their L2-group siblings -- paying a sibling round-trip on every
local miss -- and fetch cache-to-cache on a sibling hit.

Expected behaviour (and what the ablation bench shows): ICP beats the plain
hierarchy when sibling hit rates are high, but it slows every miss by the
query timeout and it can never reach copies outside the sibling group,
unlike hints.
"""

from __future__ import annotations

from repro.cache.lru import LookupResult
from repro.cache.policy import DEFAULT_POLICY, PolicySpec
from repro.hierarchy.base import AccessResult, Architecture, build_l1_caches
from repro.hierarchy.topology import HierarchyTopology
from repro.netmodel.model import AccessPoint, CostModel
from repro.obs.journey import Journey
from repro.traces.records import Request


class IcpHierarchy(Architecture):
    """Data hierarchy with ICP-style sibling queries at the L1 level."""

    name = "icp"

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
        self.l2_caches = [
            l2_spec.build(l2_bytes, salt=topology.n_l1 + node)
            for node in range(topology.n_l2)
        ]
        self.l3_cache = l3_spec.build(
            l3_bytes, salt=topology.n_l1 + topology.n_l2
        )
        self.sibling_hits = 0
        self.sibling_queries = 0

    def process(self, request: Request) -> AccessResult:
        if self.audit is not None:
            self.audit.checkpoint(self)
        if self.faults is not None:
            return self._process_faulted(request)
        l1_index = self.topology.l1_of_client(request.client_id)
        l2_index = self.topology.l2_of_l1(l1_index)
        oid, version, size = request.object_id, request.version, request.size

        if self.l1_caches[l1_index].lookup(oid, version) is LookupResult.HIT:
            journey = Journey()
            journey.local_lookup(
                self.cost_model.hierarchical_ms(AccessPoint.L1, size),
                target=f"l1:{l1_index}",
            )
            return journey.result(AccessPoint.L1, hit=True)

        # ICP query: every local miss waits for the sibling round trip.
        self.sibling_queries += 1
        query_ms = self.cost_model.probe_ms(AccessPoint.L2)
        for sibling in self.topology.siblings_of(l1_index):
            if self.l1_caches[sibling].lookup(oid, version) is LookupResult.HIT:
                self.sibling_hits += 1
                self.l1_caches[l1_index].insert(oid, size, version)
                journey = Journey()
                journey.peer_probe(query_ms, target="siblings")
                journey.transfer(
                    self.cost_model.via_l1_ms(AccessPoint.L2, size),
                    target=f"l1:{sibling}",
                )
                return journey.result(AccessPoint.L2, hit=True, remote_hit=True)

        # No sibling: proceed up the data hierarchy, query time included.
        if self.l2_caches[l2_index].lookup(oid, version) is LookupResult.HIT:
            self.l1_caches[l1_index].insert(oid, size, version)
            journey = Journey()
            journey.peer_probe(query_ms, target="siblings")
            journey.level_traversal(
                self.cost_model.hierarchical_ms(AccessPoint.L2, size),
                target=f"l2:{l2_index}",
            )
            return journey.result(AccessPoint.L2, hit=True, remote_hit=True)
        if self.l3_cache.lookup(oid, version) is LookupResult.HIT:
            self.l2_caches[l2_index].insert(oid, size, version)
            self.l1_caches[l1_index].insert(oid, size, version)
            journey = Journey()
            journey.peer_probe(query_ms, target="siblings")
            journey.level_traversal(
                self.cost_model.hierarchical_ms(AccessPoint.L3, size), target="l3"
            )
            return journey.result(AccessPoint.L3, hit=True, remote_hit=True)
        self.l3_cache.insert(oid, size, version)
        self.l2_caches[l2_index].insert(oid, size, version)
        self.l1_caches[l1_index].insert(oid, size, version)
        journey = Journey()
        journey.peer_probe(query_ms, target="siblings")
        journey.origin_fetch(
            self.cost_model.hierarchical_ms(AccessPoint.SERVER, size)
        )
        return journey.result(AccessPoint.SERVER, hit=False)

    # ------------------------------------------------------------------
    # degraded mode (active only when a FaultInjector is attached)
    # ------------------------------------------------------------------
    def on_fault_crash(self, kind, node: int) -> None:
        from repro.faults.events import NodeKind

        if kind is NodeKind.L1 and node < len(self.l1_caches):
            self.l1_caches[node].clear()
        elif kind is NodeKind.L2 and node < len(self.l2_caches):
            self.l2_caches[node].clear()
        elif kind is NodeKind.L3:
            self.l3_cache.clear()

    def _process_faulted(self, request: Request) -> AccessResult:
        """ICP under faults: queries to dead siblings wait out the timeout.

        The multicast query only completes when every queried peer has
        answered, so *one* dead sibling stalls every local miss for the
        full timeout -- the protocol-level fragility the paper's related
        -work section points at.  Dead parents behave as in the plain
        data hierarchy: timeout, then fall back to the origin server.
        """
        faults = self.faults
        assert faults is not None
        l1_index = self.topology.l1_of_client(request.client_id)
        l2_index = self.topology.l2_of_l1(l1_index)
        oid, version, size = request.object_id, request.version, request.size
        cost = self.cost_model

        if faults.is_down("l1", l1_index):
            faults.note_dead_probe()
            return self._fault_fallback(size, Journey(), target=f"l1:{l1_index}")

        if self.l1_caches[l1_index].lookup(oid, version) is LookupResult.HIT:
            charged, added = faults.degraded_ms(cost.hierarchical_ms(AccessPoint.L1, size))
            journey = Journey()
            journey.local_lookup(charged, target=f"l1:{l1_index}", fault_ms=added)
            return journey.result(AccessPoint.L1, hit=True)

        self.sibling_queries += 1
        query_ms, query_added = faults.degraded_ms(cost.probe_ms(AccessPoint.L2))
        live_siblings = []
        dead_sibling = False
        for sibling in self.topology.siblings_of(l1_index):
            if faults.is_down("l1", sibling):
                dead_sibling = True
            else:
                live_siblings.append(sibling)
        journey = Journey()
        journey.peer_probe(query_ms, target="siblings", fault_ms=query_added)
        if dead_sibling:
            # The query round only resolves at the timeout deadline.
            faults.note_dead_probe()
            journey.timeout(faults.timeout_ms, target="siblings")

        for sibling in live_siblings:
            if self.l1_caches[sibling].lookup(oid, version) is LookupResult.HIT:
                self.sibling_hits += 1
                self.l1_caches[l1_index].insert(oid, size, version)
                charged, added = faults.degraded_ms(cost.via_l1_ms(AccessPoint.L2, size))
                journey.transfer(charged, target=f"l1:{sibling}", fault_ms=added)
                return journey.result(AccessPoint.L2, hit=True, remote_hit=True)

        if faults.is_down("l2", l2_index):
            faults.note_dead_probe()
            self.l1_caches[l1_index].insert(oid, size, version)
            return self._fault_fallback(size, journey, target=f"l2:{l2_index}")

        if self.l2_caches[l2_index].lookup(oid, version) is LookupResult.HIT:
            self.l1_caches[l1_index].insert(oid, size, version)
            charged, added = faults.degraded_ms(cost.hierarchical_ms(AccessPoint.L2, size))
            journey.level_traversal(charged, target=f"l2:{l2_index}", fault_ms=added)
            return journey.result(AccessPoint.L2, hit=True, remote_hit=True)

        if faults.is_down("l3", 0):
            faults.note_dead_probe()
            self.l2_caches[l2_index].insert(oid, size, version)
            self.l1_caches[l1_index].insert(oid, size, version)
            return self._fault_fallback(size, journey, target="l3")

        if self.l3_cache.lookup(oid, version) is LookupResult.HIT:
            self.l2_caches[l2_index].insert(oid, size, version)
            self.l1_caches[l1_index].insert(oid, size, version)
            charged, added = faults.degraded_ms(cost.hierarchical_ms(AccessPoint.L3, size))
            journey.level_traversal(charged, target="l3", fault_ms=added)
            return journey.result(AccessPoint.L3, hit=True, remote_hit=True)

        self.l3_cache.insert(oid, size, version)
        self.l2_caches[l2_index].insert(oid, size, version)
        self.l1_caches[l1_index].insert(oid, size, version)
        charged, added = faults.degraded_ms(
            cost.hierarchical_ms(AccessPoint.SERVER, size), origin=True
        )
        journey.origin_fetch(charged, fault_ms=added)
        return journey.result(AccessPoint.SERVER, hit=False)

    def _fault_fallback(
        self, size: int, journey: Journey, *, target: str
    ) -> AccessResult:
        """Complete a walk blocked by a dead parent: timeout, then origin.

        ``journey`` carries the steps already charged (the sibling query
        round, possibly its own timeout); the dead parent's timeout and
        the origin fetch are appended here.
        """
        faults = self.faults
        charged, added = faults.degraded_ms(
            self.cost_model.hierarchical_ms(AccessPoint.SERVER, size), origin=True
        )
        journey.timeout(faults.timeout_ms, target=target)
        journey.origin_fetch(charged, fault_ms=added)
        return journey.result(AccessPoint.SERVER, hit=False)
