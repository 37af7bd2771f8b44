"""Centralized-directory architecture (CRISP-style; the "Directory" bars).

The CRISP cache (Gadde, Rabinovich, Chase 1997) keeps one *central* mapping
from objects to caches.  An L1 proxy that misses locally asks the central
directory where the object is, then fetches it with a direct cache-to-cache
transfer (or from the server when the directory knows no copy).

Compared with the hint architecture, the lookup is always fresh and
complete -- no false positives or negatives -- but it costs a network round
trip to the directory on **every** local miss, including requests that end
up going to the server, which violates "do not slow down misses".  The
directory sits at the root of the system, so the round trip is priced at
L3 distance.
"""

from __future__ import annotations

import weakref

from repro.cache.lru import LookupResult
from repro.cache.policy import PolicySpec
from repro.hierarchy.base import AccessResult, Architecture, build_l1_caches
from repro.hierarchy.topology import HierarchyTopology
from repro.hints.directory import HintDirectory
from repro.netmodel.model import AccessPoint, CostModel
from repro.obs.journey import Journey
from repro.traces.records import Request


class CentralizedDirectoryArchitecture(Architecture):
    """One always-fresh global directory queried over the network.

    Args:
        topology: Client / L1 / L2 / L3 grouping.
        cost_model: Access-time parameterization.
        l1_bytes: Per-proxy data-cache capacity (``None`` = infinite).
        directory_point: Distance class of the directory node (L3 -- the
            root -- by default).
        l1_policy: Replacement policy for the per-proxy data caches
            (:class:`~repro.cache.policy.PolicySpec`; default LRU).
    """

    name = "directory"

    def __init__(
        self,
        topology: HierarchyTopology,
        cost_model: CostModel,
        l1_bytes: int | None = None,
        directory_point: AccessPoint = AccessPoint.L3,
        l1_policy: PolicySpec | None = None,
    ) -> None:
        super().__init__(cost_model)
        self.topology = topology
        self.directory_point = directory_point
        # Zero delay, unbounded capacity: the central directory is complete
        # and fresh; its cost is the query round trip, not staleness.
        self.directory = HintDirectory()
        self._now = 0.0
        self.l1_caches = build_l1_caches(
            topology.n_l1,
            l1_bytes,
            eviction_callback=self._eviction_callback,
            policy=l1_policy,
        )

    #: The central directory is metadata node 0 in fault plans.
    DIRECTORY_META_NODE = 0

    def process(self, request: Request) -> AccessResult:
        if self.audit is not None:
            self.audit.checkpoint(self)
        if self.faults is not None:
            return self._process_faulted(request)
        self._now = request.time
        l1_index = self.topology.l1_of_client(request.client_id)
        oid, version, size = request.object_id, request.version, request.size

        if self.l1_caches[l1_index].lookup(oid, version) is LookupResult.HIT:
            journey = Journey()
            journey.local_lookup(
                self.cost_model.via_l1_ms(AccessPoint.L1, size),
                target=f"l1:{l1_index}",
            )
            return journey.result(AccessPoint.L1, hit=True)

        query_ms = self.cost_model.probe_ms(self.directory_point)
        lookup = self.directory.find(self._now, oid, l1_index)
        holder = self._nearest_fresh_holder(lookup.holders, l1_index, oid, version)

        if holder is not None:
            point = self.topology.distance_class(l1_index, holder)
            # The directory is fresh, so the peer is guaranteed to hold a
            # current copy (we filtered stale versions above).
            self.l1_caches[holder].lookup(oid, version)  # refresh peer LRU
            self._store(l1_index, request)
            journey = Journey()
            journey.peer_probe(query_ms, target="directory")
            journey.transfer(
                self.cost_model.via_l1_ms(point, size), target=f"l1:{holder}"
            )
            return journey.result(point, hit=True, remote_hit=True)

        self._store(l1_index, request)
        journey = Journey()
        journey.peer_probe(query_ms, target="directory")
        journey.origin_fetch(self.cost_model.via_l1_ms(AccessPoint.SERVER, size))
        return journey.result(AccessPoint.SERVER, hit=False)

    def _nearest_fresh_holder(
        self, holders: tuple[int, ...], requester: int, oid: int, version: int
    ) -> int | None:
        """Nearest holder with a current version (the directory is exact)."""
        truth = self.directory.truth_holders(oid)
        fresh = [h for h in holders if truth.get(h, -1) >= version]
        if not fresh:
            return None
        return min(
            fresh,
            key=lambda h: (int(self.topology.distance_class(requester, h)), h),
        )

    def _store(self, l1_index: int, request: Request) -> None:
        self.l1_caches[l1_index].insert(request.object_id, request.size, request.version)
        self.directory.inform(self._now, request.object_id, l1_index, request.version)

    def _eviction_callback(self, node: int):
        # A weak proxy: the architecture owns the caches (no cycle).
        arch = weakref.proxy(self)

        def on_evict(key: int, entry, reason: str) -> None:
            arch.directory.retract(arch._now, key, node)

        return on_evict

    # ------------------------------------------------------------------
    # degraded mode (active only when a FaultInjector is attached)
    # ------------------------------------------------------------------
    def on_fault_crash(self, kind, node: int) -> None:
        """Crashes hurt CRISP two ways: dead proxies leave the directory
        pointing at data that no longer exists (the node died without
        retracting), and a dead directory makes *every* local miss pay a
        query timeout before going to the origin server."""
        from repro.faults.events import NodeKind

        if kind is NodeKind.L1 and node < len(self.l1_caches):
            # The node cannot say goodbye: directory entries go stale.
            for key in self.l1_caches[node].clear():
                self.directory.retract(self._now, key, node, visible=False)

    def _process_faulted(self, request: Request) -> AccessResult:
        faults = self.faults
        assert faults is not None
        self._now = request.time
        l1_index = self.topology.l1_of_client(request.client_id)
        oid, version, size = request.object_id, request.version, request.size
        cost = self.cost_model

        if faults.is_down("l1", l1_index):
            # Client's own proxy dead: timeout, then direct origin fetch.
            faults.note_dead_probe()
            charged, added = faults.degraded_ms(
                cost.via_l1_ms(AccessPoint.SERVER, size), origin=True
            )
            journey = Journey()
            journey.timeout(faults.timeout_ms, target=f"l1:{l1_index}")
            journey.origin_fetch(charged, fault_ms=added)
            return journey.result(AccessPoint.SERVER, hit=False)

        if self.l1_caches[l1_index].lookup(oid, version) is LookupResult.HIT:
            charged, added = faults.degraded_ms(cost.via_l1_ms(AccessPoint.L1, size))
            journey = Journey()
            journey.local_lookup(charged, target=f"l1:{l1_index}", fault_ms=added)
            return journey.result(AccessPoint.L1, hit=True)

        if faults.is_down("meta", self.DIRECTORY_META_NODE):
            # The directory itself is down: the query times out and the
            # miss goes straight to the origin server.  The copy is still
            # cached locally, but the directory never hears about it --
            # its map silently erodes for the outage's duration.
            faults.note_dead_probe()
            self.l1_caches[l1_index].insert(oid, size, version)
            charged, added = faults.degraded_ms(
                cost.via_l1_ms(AccessPoint.SERVER, size), origin=True
            )
            journey = Journey()
            journey.timeout(faults.timeout_ms, target="directory")
            journey.origin_fetch(charged, fault_ms=added)
            return journey.result(AccessPoint.SERVER, hit=False)

        query_ms, query_added = faults.degraded_ms(cost.probe_ms(self.directory_point))
        lookup = self.directory.find(self._now, oid, l1_index)
        # Under faults the directory's freshness premise is void: crashed
        # proxies died without retracting, so the visible map may name
        # holders that no longer exist.  Trust the map (that is what a
        # real CRISP client does) and let the fetch discover the truth.
        holder = self._nearest_visible_holder(lookup.holders, l1_index)

        if holder is not None and faults.is_down("l1", holder):
            # Stale map: the fetch hangs on a dead peer until the timeout,
            # then the directory drops the entry and the request goes to
            # the origin server.
            faults.note_dead_probe()
            self.directory.drop_visible(oid, holder)
            self._store(l1_index, request)
            charged, added = faults.degraded_ms(
                cost.via_l1_ms(AccessPoint.SERVER, size), origin=True
            )
            journey = Journey()
            journey.peer_probe(query_ms, target="directory", fault_ms=query_added)
            journey.timeout(faults.timeout_ms, target=f"l1:{holder}", stale=True)
            journey.origin_fetch(charged, fault_ms=added)
            return journey.result(AccessPoint.SERVER, hit=False)

        if holder is not None:
            point = self.topology.distance_class(l1_index, holder)
            if self.l1_caches[holder].lookup(oid, version) is LookupResult.HIT:
                self._store(l1_index, request)
                charged, added = faults.degraded_ms(cost.via_l1_ms(point, size))
                journey = Journey()
                journey.peer_probe(query_ms, target="directory", fault_ms=query_added)
                journey.transfer(charged, target=f"l1:{holder}", fault_ms=added)
                return journey.result(point, hit=True, remote_hit=True)
            # The peer is alive but the copy is gone (it crashed and came
            # back empty while the directory still advertised the entry):
            # a wasted forward the healthy directory can never produce.
            self.directory.drop_visible(oid, holder)
            probe_ms, probe_added = faults.degraded_ms(cost.probe_ms(point))
            self._store(l1_index, request)
            charged, added = faults.degraded_ms(
                cost.via_l1_ms(AccessPoint.SERVER, size), origin=True
            )
            journey = Journey()
            journey.peer_probe(query_ms, target="directory", fault_ms=query_added)
            journey.peer_probe(
                probe_ms, target=f"l1:{holder}", fault_ms=probe_added, wasted=True
            )
            journey.mark_stale_forward()
            journey.origin_fetch(charged, fault_ms=added)
            return journey.result(AccessPoint.SERVER, hit=False)

        self._store(l1_index, request)
        charged, added = faults.degraded_ms(
            cost.via_l1_ms(AccessPoint.SERVER, size), origin=True
        )
        journey = Journey()
        journey.peer_probe(query_ms, target="directory", fault_ms=query_added)
        journey.origin_fetch(charged, fault_ms=added)
        return journey.result(AccessPoint.SERVER, hit=False)

    def _nearest_visible_holder(
        self, holders: tuple[int, ...], requester: int
    ) -> int | None:
        """Nearest holder the (possibly stale) visible map advertises."""
        if not holders:
            return None
        return min(
            holders,
            key=lambda h: (int(self.topology.distance_class(requester, h)), h),
        )
