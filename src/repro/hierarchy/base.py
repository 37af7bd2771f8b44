"""Architecture interface and per-request results.

Every architecture maps one trace request to an :class:`AccessResult`: how
long the request took, where it was satisfied, and which hint pathologies
it hit.  The simulation engine (:mod:`repro.sim.engine`) aggregates these
into the statistics the figures report.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from repro.cache.policy import DEFAULT_POLICY, PolicySpec
from repro.netmodel.model import AccessPoint, CostModel
from repro.traces.records import Request

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.audit.hooks import AuditHooks
    from repro.cache.lru import CacheEntry
    from repro.faults.events import NodeKind
    from repro.faults.injector import FaultInjector
    from repro.obs.journey import Journey
    from repro.obs.telemetry import MetricsRegistry


def build_l1_caches(
    n_l1: int,
    capacity_bytes: int | None,
    *,
    eviction_callback: "Callable[[int], Callable[[int, CacheEntry, str], None]] | None" = None,
    policy: PolicySpec | None = None,
) -> list:
    """Construct the per-proxy L1 data caches, one per node.

    Every shipped architecture stores data at the L1 proxies; the
    hint-style ones additionally watch evictions so they can retract
    metadata (the prototype's *invalidate* command).  This is that one
    construction, shared: ``eviction_callback`` is the per-node factory
    (``node -> on_evict``), and ``policy`` picks the replacement policy
    (default LRU, behaviour-identical to the historical hardcoded
    ``LRUCache`` sites).  The node index salts the policy build so the
    Random policy's victim streams are independent across proxies.
    """
    spec = policy if policy is not None else DEFAULT_POLICY
    return [
        spec.build(
            capacity_bytes,
            on_evict=eviction_callback(node) if eviction_callback is not None else None,
            salt=node,
        )
        for node in range(n_l1)
    ]


@dataclass(frozen=True)
class AccessResult:
    """Outcome of one request against one architecture.

    Attributes:
        point: Where the request was satisfied: ``L1``/``L2``/``L3`` for a
            cache hit at that distance, ``SERVER`` for a miss.
        time_ms: Charged response time.
        hit: True when any cache supplied the data.
        remote_hit: True when the supplying cache was not the client's own
            L1 proxy (hint-architecture cache-to-cache transfer or a
            higher-level hit in a data hierarchy).
        false_positive: A hint named a cache that no longer held the object
            (wasted probe charged).
        false_negative: No hint although a remote copy existed (priced as a
            plain miss, per "do not slow down misses").
        suboptimal_positive: The hint named a farther cache although a
            closer one also held a current copy -- still a hit, charged at
            the farther distance class (the third hint error of section
            3.1.1).
        push_hit: The hit was served from an object that a push algorithm
            had placed at the proxy before any local demand.
        timeout_fallback: The request waited out a dead node's timeout and
            then fell back (to the origin server, or around the dead
            level) -- only set under fault injection.
        stale_hint_forward: A hint/directory entry forwarded the request
            to a crashed or emptied node (a *wasted forward*: the copy is
            unreachable although metadata still advertises it) -- only
            set under fault injection.
        fault_added_ms: Portion of ``time_ms`` attributable to injected
            faults (timeouts, origin slowdown, link degradation).  Zero
            on every healthy run.
        journey: The hop ledger this result was derived from
            (:class:`repro.obs.journey.Journey`), or ``None`` for results
            built directly (test stubs).  When present, ``time_ms`` is
            exactly the left-to-right sum of the steps' ``cost_ms`` and
            ``fault_added_ms`` the sum of their ``fault_ms`` -- see
            :meth:`repro.obs.journey.Journey.result`.  Excluded from
            equality/repr: two results are the same outcome even if their
            narrations are distinct objects.
    """

    point: AccessPoint
    time_ms: float
    hit: bool
    remote_hit: bool = False
    false_positive: bool = False
    false_negative: bool = False
    suboptimal_positive: bool = False
    push_hit: bool = False
    timeout_fallback: bool = False
    stale_hint_forward: bool = False
    fault_added_ms: float = 0.0
    journey: "Journey | None" = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.time_ms < 0:
            raise ValueError(f"response time must be non-negative, got {self.time_ms}")
        if not 0 <= self.fault_added_ms <= self.time_ms:
            raise ValueError(
                f"fault-added time must be within [0, time_ms], got "
                f"{self.fault_added_ms} of {self.time_ms}"
            )
        if self.hit and self.point is AccessPoint.SERVER:
            raise ValueError("a hit cannot be satisfied at the server")
        if not self.hit and self.point is not AccessPoint.SERVER:
            raise ValueError("a miss must be satisfied at the server")


class Architecture(abc.ABC):
    """A cache system: consumes trace requests, produces access results."""

    #: Short name used in experiment reports (e.g. "hierarchy", "hints").
    name: str = "abstract"

    def __init__(self, cost_model: CostModel) -> None:
        self.cost_model = cost_model
        #: Requests driven through this instance by the simulation engine.
        #: Zero means "freshly constructed" -- the invariant comparison
        #: runs check, since reusing a warmed architecture biases results.
        self.processed_requests = 0
        #: Bound fault injector, or None (the default healthy case).  Set
        #: via :meth:`attach_faults`; architectures branch to their
        #: fault-aware request path only when this is not None, so a
        #: plan-free run takes exactly the original code path.
        self.faults: "FaultInjector | None" = None
        #: Bound audit hooks, or None (the default).  Set via
        #: :meth:`attach_audit`; architectures call
        #: ``self.audit.checkpoint(self)`` at the top of ``process`` only
        #: when this is not None, so an un-audited run pays one pointer
        #: check per request.
        self.audit: "AuditHooks | None" = None

    @abc.abstractmethod
    def process(self, request: Request) -> AccessResult:
        """Serve one request, mutating internal cache state."""

    # ------------------------------------------------------------------
    # fault injection (opt-in; see repro.faults)
    # ------------------------------------------------------------------
    def attach_faults(self, injector: "FaultInjector") -> None:
        """Opt this instance into fault injection for the coming run."""
        self.faults = injector

    def on_fault_crash(self, kind: "NodeKind", node: int) -> None:
        """Injector callback: node ``(kind, node)`` just crashed.

        Subclasses drop the volatile state the crash destroys (cache
        contents, pending metadata).  The base implementation ignores
        kinds an architecture has no node for -- crashing an L3 data
        node cannot hurt an architecture that stores data only at L1.
        """

    def on_fault_recover(self, kind: "NodeKind", node: int) -> None:
        """Injector callback: node ``(kind, node)`` just rejoined (empty)."""

    # ------------------------------------------------------------------
    # auditing (opt-in; see repro.audit)
    # ------------------------------------------------------------------
    def attach_audit(self, hooks: "AuditHooks") -> None:
        """Opt this instance into runtime invariant auditing."""
        self.audit = hooks

    # ------------------------------------------------------------------
    # telemetry (opt-in; see repro.obs.telemetry)
    # ------------------------------------------------------------------
    def register_telemetry(self, registry: "MetricsRegistry") -> None:
        """Register this instance's layers as callback-backed instruments.

        The base implementation introspects the structural conventions
        every shipped architecture follows (``l1_caches``/``l2_caches``
        lists, a single ``l3_cache``, a hint ``directory``, ICP sibling
        counters); subclasses with extra state can extend it.  Called by
        :class:`repro.obs.telemetry.RunTelemetry` at run start -- never
        on the request path, so un-telemetered runs pay nothing.
        """
        from repro.obs.telemetry import bind_architecture

        bind_architecture(registry, self)

    def describe(self) -> str:
        """One-line description for experiment logs."""
        return f"{self.name} ({self.cost_model.name} access times)"
