"""Alternate configuration: hint caches at the clients (Figure 4b).

In this variant the metadata hierarchy extends past the L1 proxies to the
clients: each client consults its *own* hint directory and then accesses
the named cache (or the server) directly, skipping the L1 relay.  Data
still lives only at L1 proxy caches.

The trade-off the paper describes (end of section 3.3): client hint caches
are faster to consult and skip a hop, but they are smaller than a shared
proxy hint cache and therefore suffer more false negatives.  "As long as
client caches are large enough so that the false-negative rate for the
client hint caches is below 50%, the alternate configuration is superior."
We expose that knob directly as ``client_false_negative_rate``: the
probability that a client's hint cache has no entry for an object the
proxy-level directory knows about.
"""

from __future__ import annotations

import weakref

import numpy as np

from repro.cache.lru import LookupResult
from repro.cache.policy import PolicySpec
from repro.hierarchy.base import AccessResult, Architecture, build_l1_caches
from repro.hierarchy.topology import HierarchyTopology
from repro.hints.directory import HintDirectory
from repro.netmodel.model import AccessPoint, CostModel
from repro.obs.journey import Journey
from repro.traces.records import Request


class ClientHintHierarchy(Architecture):
    """Client-side hint directories with direct client-to-cache access.

    Args:
        topology: Client / L1 / L2 / L3 grouping.
        cost_model: Access-time parameterization (direct paths are used).
        l1_bytes: Per-proxy data-cache capacity.
        client_false_negative_rate: Probability that a client hint cache
            misses an entry the full directory holds (capacity effect of
            the small per-client hint store).
        seed: Randomness for the false-negative coin flips.
        l1_policy: Replacement policy for the per-proxy data caches
            (:class:`~repro.cache.policy.PolicySpec`; default LRU).
    """

    name = "client-hints"

    def __init__(
        self,
        topology: HierarchyTopology,
        cost_model: CostModel,
        l1_bytes: int | None = None,
        client_false_negative_rate: float = 0.0,
        seed: int = 0,
        l1_policy: PolicySpec | None = None,
    ) -> None:
        super().__init__(cost_model)
        if not 0.0 <= client_false_negative_rate <= 1.0:
            raise ValueError(
                f"false-negative rate must be in [0, 1], got {client_false_negative_rate}"
            )
        self.topology = topology
        self.client_false_negative_rate = client_false_negative_rate
        self._rng = np.random.default_rng(seed)
        self.directory = HintDirectory()
        self._now = 0.0
        self.l1_caches = build_l1_caches(
            topology.n_l1,
            l1_bytes,
            eviction_callback=self._eviction_callback,
            policy=l1_policy,
        )

    def process(self, request: Request) -> AccessResult:
        if self.audit is not None:
            self.audit.checkpoint(self)
        self._now = request.time
        l1_index = self.topology.l1_of_client(request.client_id)
        oid, version, size = request.object_id, request.version, request.size

        # The client always knows its own LAN proxy's contents: those hint
        # entries are the most recently used and survive capacity pressure,
        # and the proxy is one switch away regardless.
        local = self.l1_caches[l1_index].lookup(oid, version)
        if local is LookupResult.HIT:
            journey = Journey()
            journey.local_lookup(
                self.cost_model.direct_ms(AccessPoint.L1, size),
                target=f"l1:{l1_index}",
            )
            return journey.result(AccessPoint.L1, hit=True)
        # Capacity pressure on the small client hint cache falls on the
        # long tail of *remote* entries: with probability fn_rate the
        # client's cache has no entry for a copy the system holds.
        degraded = (
            self.client_false_negative_rate > 0.0
            and self._rng.random() < self.client_false_negative_rate
        )
        if not degraded:
            lookup = self.directory.find(self._now, oid, l1_index)
            holder = self._nearest_holder(lookup.holders, l1_index)
            if holder is not None:
                point = self.topology.distance_class(l1_index, holder)
                remote = self.l1_caches[holder].lookup(oid, version)
                if remote is LookupResult.HIT:
                    # Direct client-to-peer transfer; the client's proxy
                    # still receives the copy (data lives at L1 proxies).
                    self._store(l1_index, request)
                    journey = Journey()
                    journey.transfer(
                        self.cost_model.direct_ms(point, size),
                        target=f"l1:{holder}",
                    )
                    return journey.result(point, hit=True, remote_hit=True)
                self.directory.record_false_positive()
                self._store(l1_index, request)
                journey = Journey()
                journey.peer_probe(
                    self.cost_model.probe_ms(point),
                    target=f"l1:{holder}",
                    wasted=True,
                )
                journey.mark_false_positive()
                journey.origin_fetch(
                    self.cost_model.direct_ms(AccessPoint.SERVER, size)
                )
                return journey.result(AccessPoint.SERVER, hit=False)
        # Degraded (client hint cache too small) or genuinely no holder:
        # the client goes straight to the server.
        self._store(l1_index, request)
        journey = Journey()
        if degraded:
            journey.mark_false_negative()
        journey.origin_fetch(self.cost_model.direct_ms(AccessPoint.SERVER, size))
        return journey.result(AccessPoint.SERVER, hit=False)

    def _store(self, l1_index: int, request: Request) -> None:
        self.l1_caches[l1_index].insert(request.object_id, request.size, request.version)
        self.directory.inform(self._now, request.object_id, l1_index, request.version)

    def _eviction_callback(self, node: int):
        # A weak proxy: the architecture owns the caches (no cycle).
        arch = weakref.proxy(self)

        def on_evict(key: int, entry, reason: str) -> None:
            arch.directory.retract(arch._now, key, node)

        return on_evict

    def _nearest_holder(self, holders: tuple[int, ...], requester: int) -> int | None:
        if not holders:
            return None
        return min(
            holders,
            key=lambda h: (int(self.topology.distance_class(requester, h)), h),
        )
