"""Message-level hint architecture: the full prototype stack as a system.

:class:`~repro.hierarchy.hint_hierarchy.HintHierarchy` models hint state
with a single directory parameterized by delay and capacity.  This class
replaces the model with the mechanism: every L1 proxy runs a real
:class:`~repro.hints.node.HintNode` (the 16-byte packed hint cache), and a
:class:`~repro.hints.cluster.HintCluster` moves actual 20-byte update
batches between them over the metadata tree with the paper's randomized
0-60 s flush jitter.

Hint pathologies now *emerge* instead of being injected:

* **false negatives** -- an update has not flushed its way to the
  requester's hint cache yet, or was displaced by a set conflict;
* **false positives** -- an invalidation is still in flight, so the local
  hint cache names a cache that already dropped its copy;
* **suboptimal positives** -- the 16-byte record holds a single machine:
  whichever holder's update arrived last wins, near or far.

Because each request consults only its own node's packed hint cache, this
architecture is the closest thing in the library to running 64 copies of
the Squid prototype.  The ``message_level`` experiment compares it against
the modeled directory.
"""

from __future__ import annotations

import weakref

from repro.cache.lru import CacheEntry, LookupResult
from repro.cache.policy import PolicySpec
from repro.common.ids import object_id_from_url
from repro.hierarchy.base import AccessResult, Architecture, build_l1_caches
from repro.hierarchy.topology import HierarchyTopology
from repro.hints.cluster import HintCluster
from repro.hints.propagation import HintPropagationTree
from repro.hints.wire import MAX_UPDATE_PERIOD_S
from repro.netmodel.model import AccessPoint, CostModel
from repro.obs.journey import Journey
from repro.traces.records import Request


class MessageLevelHintHierarchy(Architecture):
    """Hint architecture driven by real per-node hint caches and batches.

    Args:
        topology: Client / L1 / L2 / L3 grouping; the metadata tree has
            one leaf per L1 proxy and mirrors the L2 grouping.
        cost_model: Access-time parameterization.
        l1_bytes: Per-proxy data-cache capacity.
        hint_capacity_bytes: Per-node packed hint-cache size.
        link_latency_s: One-way metadata-link latency.
        max_period_s: Upper bound of the randomized flush period (60 s in
            the paper; lower values trade update bandwidth for freshness).
        seed: Flush-jitter randomness.
        l1_policy: Replacement policy for the per-proxy data caches
            (:class:`~repro.cache.policy.PolicySpec`; default LRU).
    """

    name = "hints-message-level"

    def __init__(
        self,
        topology: HierarchyTopology,
        cost_model: CostModel,
        l1_bytes: int | None = None,
        hint_capacity_bytes: int = 1 << 20,
        link_latency_s: float = 0.1,
        max_period_s: float = MAX_UPDATE_PERIOD_S,
        seed: int = 0,
        l1_policy: PolicySpec | None = None,
    ) -> None:
        super().__init__(cost_model)
        self.topology = topology
        tree = HintPropagationTree.balanced(
            branching=topology.l1_per_l2, leaves=topology.n_l1
        )
        self.cluster = HintCluster(
            parents=tree.parent_vector(),
            hint_capacity_bytes=hint_capacity_bytes,
            link_latency_s=link_latency_s,
            max_period_s=max_period_s,
            seed=seed,
        )
        self._now = 0.0
        self._hash_cache: dict[int, int] = {}
        self.l1_caches = build_l1_caches(
            topology.n_l1,
            l1_bytes,
            eviction_callback=self._eviction_callback,
            policy=l1_policy,
        )
        self.false_positive_probes = 0
        self.false_negative_misses = 0

    # ------------------------------------------------------------------
    # processing
    # ------------------------------------------------------------------
    def process(self, request: Request) -> AccessResult:
        if self.audit is not None:
            self.audit.checkpoint(self)
        self._now = request.time
        l1_index = self.topology.l1_of_client(request.client_id)
        cache = self.l1_caches[l1_index]
        oid, version, size = request.object_id, request.version, request.size

        if cache.lookup(oid, version) is LookupResult.HIT:
            journey = Journey()
            journey.local_lookup(
                self.cost_model.via_l1_ms(AccessPoint.L1, size),
                target=f"l1:{l1_index}",
            )
            return journey.result(AccessPoint.L1, hit=True)

        url_hash = self._hash_of(oid)
        found = self.cluster.find_nearest(l1_index, url_hash, self._now)
        holder = found.node if found is not None else None
        if holder is not None and holder != l1_index:
            point = self.topology.distance_class(l1_index, holder)
            remote = self.l1_caches[holder].lookup(oid, version)
            if remote is LookupResult.HIT:
                self._store(l1_index, request)
                journey = Journey()
                journey.hint_lookup(
                    self.cost_model.hint_lookup_ms(), target=f"l1:{holder}"
                )
                journey.transfer(
                    self.cost_model.via_l1_ms(point, size), target=f"l1:{holder}"
                )
                return journey.result(point, hit=True, remote_hit=True)
            self.false_positive_probes += 1
            self._store(l1_index, request)
            journey = Journey()
            journey.peer_probe(
                self.cost_model.probe_ms(point), target=f"l1:{holder}", wasted=True
            )
            journey.mark_false_positive()
            journey.origin_fetch(self.cost_model.via_l1_ms(AccessPoint.SERVER, size))
            return journey.result(AccessPoint.SERVER, hit=False)

        false_negative = self._other_holder_exists(oid, version, l1_index)
        if false_negative:
            self.false_negative_misses += 1
        self._store(l1_index, request)
        journey = Journey()
        if false_negative:
            journey.mark_false_negative()
        journey.origin_fetch(self.cost_model.via_l1_ms(AccessPoint.SERVER, size))
        return journey.result(AccessPoint.SERVER, hit=False)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _hash_of(self, object_id: int) -> int:
        url_hash = self._hash_cache.get(object_id)
        if url_hash is None:
            url_hash = object_id_from_url(f"http://obj/{object_id}")
            self._hash_cache[object_id] = url_hash
        return url_hash

    def _store(self, l1_index: int, request: Request) -> None:
        self.l1_caches[l1_index].insert(
            request.object_id, request.size, request.version
        )
        self.cluster.local_inform(
            l1_index, self._hash_of(request.object_id), self._now
        )

    def _eviction_callback(self, node: int):
        # A weak proxy: the architecture owns the caches (no cycle).
        arch = weakref.proxy(self)

        def on_evict(key: int, entry: CacheEntry, reason: str) -> None:
            arch.cluster.local_invalidate(node, arch._hash_of(key), arch._now)

        return on_evict

    def _other_holder_exists(self, oid: int, version: int, requester: int) -> bool:
        """Ground truth for false-negative accounting (not used to route)."""
        for node, cache in enumerate(self.l1_caches):
            if node == requester:
                continue
            entry = cache.peek(oid)
            if entry is not None and entry.version >= version:
                return True
        return False
