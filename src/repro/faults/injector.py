"""Replays a :class:`~repro.faults.events.FaultPlan` against sim time.

One injector drives one simulation run.  The engine advances it to each
request's timestamp; architectures it is bound to get crash/recover
callbacks (to lose volatile state) and query the current fault state on
their request path:

* ``is_down(kind, node)`` -- reachability of a data or metadata node;
* ``hint_update_dropped()`` -- seeded Bernoulli draw at the current
  batch-loss probability;
* ``surcharge_ms`` / ``degraded_ms`` -- the latency arithmetic for
  timeouts, origin slowdown, and link degradation, accumulated into the
  per-request ``fault_added_ms`` so every extra millisecond is
  attributable.

Determinism: the injector's only randomness is the batch-loss stream,
seeded from the plan, so identical plans produce identical runs -- in
one process or across the parallel runner's workers.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

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

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.hierarchy.base import Architecture


@dataclass
class FaultStats:
    """What the injector did to one run (plan-side view of degradation)."""

    crashes: int = 0
    recoveries: int = 0
    hint_updates_dropped: int = 0
    dead_probes: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "crashes": self.crashes,
            "recoveries": self.recoveries,
            "hint_updates_dropped": self.hint_updates_dropped,
            "dead_probes": self.dead_probes,
        }


class FaultInjector:
    """Stateful replay of one fault plan over one simulation run.

    Args:
        plan: The schedule to replay.  An empty plan is legal -- the
            injector then never activates anything.

    Attributes:
        origin_factor: Current origin-fetch multiplier (>= 1).
        latency_mult: Current network-charge multiplier (>= 1).
        hint_loss_prob: Current hint-batch loss probability.
        hint_delay_skew_s: Current extra hint-visibility lag in seconds.
        stats: Counters of everything injected so far.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._events = plan.events
        self._next = 0
        self._down: set[tuple[NodeKind, int]] = set()
        self.origin_factor = 1.0
        self.latency_mult = 1.0
        self.hint_loss_prob = 0.0
        self.hint_delay_skew_s = 0.0
        self._rng = np.random.default_rng([plan.seed, 0x0FAB17])
        # Weak references, in bind order: a bound architecture holds this
        # injector (``architecture.faults``), so a strong reference back
        # would make every faulted architecture a reference cycle.
        self._bound: list["weakref.ref[Architecture]"] = []
        self.stats = FaultStats()
        self.now = 0.0
        #: Sticky: True once any event fired that can desynchronize hint
        #: metadata from cache contents (a crash losing state, a lossy
        #: batch window, visibility drift).  Audits consult this to know
        #: whether hint/truth divergence has a legitimate explanation --
        #: sticky because the damage outlives the event (stale hints
        #: persist after the faulty window closes).
        self.hint_damage_possible = False

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def bind(self, architecture: "Architecture") -> None:
        """Attach to an architecture: it will see crash/recover callbacks.

        The injector holds the architecture weakly, so binding never keeps
        it alive.
        """
        if all(ref() is not architecture for ref in self._bound):
            self._bound.append(weakref.ref(architecture))
        architecture.attach_faults(self)

    def _architectures(self) -> list["Architecture"]:
        """The bound architectures still alive, in bind order."""
        alive = (ref() for ref in self._bound)
        return [architecture for architecture in alive if architecture is not None]

    # ------------------------------------------------------------------
    # time
    # ------------------------------------------------------------------
    def advance(self, now: float) -> None:
        """Apply every scheduled event with ``time <= now``."""
        while self._next < len(self._events) and self._events[self._next].time <= now:
            self._apply(self._events[self._next])
            self._next += 1
        self.now = max(self.now, now)

    def inject(self, event) -> None:
        """Apply one event immediately, outside any plan.

        For interactive drills and stateful tests that decide faults on
        the fly; scheduled replay should go through :meth:`advance`.
        """
        self._apply(event)

    def _apply(self, event) -> None:
        if isinstance(event, NodeCrash):
            self.hint_damage_possible = True
            key = (event.kind, event.node)
            if key not in self._down:
                self._down.add(key)
                self.stats.crashes += 1
                for architecture in self._architectures():
                    architecture.on_fault_crash(event.kind, event.node)
        elif isinstance(event, NodeRecover):
            key = (event.kind, event.node)
            if key in self._down:
                self._down.discard(key)
                self.stats.recoveries += 1
                for architecture in self._architectures():
                    architecture.on_fault_recover(event.kind, event.node)
        elif isinstance(event, HintBatchLoss):
            self.hint_loss_prob = event.prob
            if event.prob > 0.0:
                self.hint_damage_possible = True
        elif isinstance(event, StaleHintDrift):
            self.hint_delay_skew_s = event.ttl_skew_s
            if event.ttl_skew_s > 0.0:
                self.hint_damage_possible = True
        elif isinstance(event, OriginSlowdown):
            self.origin_factor = event.factor
        elif isinstance(event, LinkDegrade):
            self.latency_mult = event.latency_mult
        else:  # pragma: no cover - FaultPlan validates event types
            raise TypeError(f"unknown fault event {event!r}")

    # ------------------------------------------------------------------
    # queries (the architectures' request-path API)
    # ------------------------------------------------------------------
    def is_down(self, kind: NodeKind | str, node: int) -> bool:
        """Is node ``(kind, node)`` currently crashed?"""
        return (NodeKind(kind), node) in self._down

    def any_down(self, kind: NodeKind | str) -> bool:
        """Is any node of this kind currently crashed?"""
        kind = NodeKind(kind)
        return any(k == kind for k, _n in self._down)

    @property
    def down_nodes(self) -> frozenset[tuple[NodeKind, int]]:
        """Snapshot of every currently crashed ``(kind, node)`` pair."""
        return frozenset(self._down)

    @property
    def faults_active(self) -> bool:
        """True while any fault condition is in force."""
        return (
            bool(self._down)
            or self.origin_factor != 1.0
            or self.latency_mult != 1.0
            or self.hint_loss_prob > 0.0
            or self.hint_delay_skew_s > 0.0
        )

    @property
    def timeout_ms(self) -> float:
        """Dead-node timeout charged before a fallback (from the plan)."""
        return self.plan.timeout_ms

    def hint_update_dropped(self) -> bool:
        """Seeded draw: is this hint inform/retract batch lost in flight?"""
        if self.hint_loss_prob <= 0.0:
            return False
        dropped = float(self._rng.random()) < self.hint_loss_prob
        if dropped:
            self.stats.hint_updates_dropped += 1
        return dropped

    def note_dead_probe(self) -> None:
        """Count a probe/query that hit a crashed node and timed out."""
        self.stats.dead_probes += 1

    # ------------------------------------------------------------------
    # latency arithmetic
    # ------------------------------------------------------------------
    def degraded_ms(self, base_ms: float, *, origin: bool = False) -> tuple[float, float]:
        """Charge ``base_ms`` under current conditions.

        Returns ``(charged_ms, fault_added_ms)`` where ``charged_ms`` is
        the base inflated by the link multiplier (and origin slowdown
        when ``origin``), and ``fault_added_ms`` is the excess over the
        healthy charge -- the run's "added latency attributable to
        faults" ledger.  Multipliers are >= 1, so the excess is never
        negative and a healthy injector returns the base unchanged.
        """
        charged = base_ms * self.latency_mult
        if origin:
            charged *= self.origin_factor
        return charged, charged - base_ms
