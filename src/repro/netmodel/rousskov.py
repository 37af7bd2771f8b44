"""Rousskov-derived cost model (Table 3 of the paper).

Rousskov instrumented deployed Squid caches and published per-component hit
times: *client connect* (accept to parsed request), *disk* (swap-in), and
*proxy reply* (send back), for leaf, intermediate, and root caches, plus
the top-level proxy's miss time to origin servers.  The paper reduces these
to min/max bounds over peak-hour 20-minute medians and composes them into
total access times.  We encode the same component numbers and the same
composition rules; :class:`RousskovCostModel` reproduces every cell of
Table 3 exactly (tests pin all 24 derived cells).

Composition rules (paper section 2.1.2):

* hierarchical to level k: sum of (connect + reply) over levels 1..k,
  plus disk at level k;
* hierarchical miss: hierarchical overhead through the root (no disk),
  plus the server miss time;
* direct to level k: connect(k) + disk(k) + reply(k); direct miss is the
  raw server miss time;
* via L1 to level k >= 2: L1 connect + L1 reply + direct(k); via-L1 miss:
  L1 connect + L1 reply + server miss time.

These medians aggregate over real object-size mixes, so this model is
size-independent -- the ``size`` argument is accepted and ignored.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.netmodel.model import AccessPoint, CostModel


@dataclass(frozen=True)
class ComponentTimes:
    """Min/max of one Squid time component, in milliseconds."""

    min_ms: float
    max_ms: float

    def pick(self, bound: str) -> float:
        """Select the ``"min"`` or ``"max"`` bound."""
        if bound == "min":
            return self.min_ms
        if bound == "max":
            return self.max_ms
        raise ValueError(f"bound must be 'min' or 'max', got {bound!r}")


@dataclass(frozen=True)
class LevelComponents:
    """The three Squid components for one cache level."""

    client_connect: ComponentTimes
    disk: ComponentTimes
    proxy_reply: ComponentTimes


#: Rousskov's published component times, as tabulated in the paper (Table 3,
#: left half).  Keys are cache levels; the origin-server miss time is
#: :data:`MISS_SERVER`.
ROUSSKOV_COMPONENTS: dict[AccessPoint, LevelComponents] = {
    AccessPoint.L1: LevelComponents(
        client_connect=ComponentTimes(16.0, 62.0),
        disk=ComponentTimes(72.0, 135.0),
        proxy_reply=ComponentTimes(75.0, 155.0),
    ),
    AccessPoint.L2: LevelComponents(
        client_connect=ComponentTimes(50.0, 550.0),
        disk=ComponentTimes(60.0, 950.0),
        proxy_reply=ComponentTimes(70.0, 1050.0),
    ),
    AccessPoint.L3: LevelComponents(
        client_connect=ComponentTimes(100.0, 1200.0),
        disk=ComponentTimes(100.0, 650.0),
        proxy_reply=ComponentTimes(120.0, 1000.0),
    ),
}

#: Time the top-level proxy spends connecting to and receiving from origin
#: servers on a miss.
MISS_SERVER = ComponentTimes(550.0, 3200.0)


class RousskovCostModel(CostModel):
    """Size-independent min/max access times from Rousskov's measurements.

    Args:
        bound: ``"min"`` for the low-load bound, ``"max"`` for the congested
            bound.  Figure 8 and Table 6 report both.
    """

    def __init__(self, bound: str) -> None:
        if bound not in ("min", "max"):
            raise ValueError(f"bound must be 'min' or 'max', got {bound!r}")
        self.bound = bound
        self.name = bound

    # ------------------------------------------------------------------
    # component helpers
    # ------------------------------------------------------------------
    def _connect(self, level: AccessPoint) -> float:
        return ROUSSKOV_COMPONENTS[level].client_connect.pick(self.bound)

    def _disk(self, level: AccessPoint) -> float:
        return ROUSSKOV_COMPONENTS[level].disk.pick(self.bound)

    def _reply(self, level: AccessPoint) -> float:
        return ROUSSKOV_COMPONENTS[level].proxy_reply.pick(self.bound)

    def _miss_server(self) -> float:
        return MISS_SERVER.pick(self.bound)

    def _l1_relay(self) -> float:
        """Connect + reply overhead of relaying through the L1 proxy."""
        return self._connect(AccessPoint.L1) + self._reply(AccessPoint.L1)

    # ------------------------------------------------------------------
    # CostModel interface
    # ------------------------------------------------------------------
    def hierarchical_ms(self, point: AccessPoint, size: int = 0) -> float:
        cache_levels = (AccessPoint.L1, AccessPoint.L2, AccessPoint.L3)
        if point is AccessPoint.SERVER:
            overhead = sum(self._connect(lv) + self._reply(lv) for lv in cache_levels)
            return overhead + self._miss_server()
        traversed = cache_levels[: cache_levels.index(point) + 1]
        overhead = sum(self._connect(lv) + self._reply(lv) for lv in traversed)
        return overhead + self._disk(point)

    def direct_ms(self, point: AccessPoint, size: int = 0) -> float:
        if point is AccessPoint.SERVER:
            return self._miss_server()
        return self._connect(point) + self._disk(point) + self._reply(point)

    def via_l1_ms(self, point: AccessPoint, size: int = 0) -> float:
        if point is AccessPoint.L1:
            return self.direct_ms(AccessPoint.L1)
        return self._l1_relay() + self.direct_ms(point)

    def probe_ms(self, point: AccessPoint) -> float:
        """A wasted probe pays the connect time of the probed level."""
        if point is AccessPoint.SERVER:
            return self._miss_server()
        return self._connect(point)

    # Batch pricing: size-independent, so a batch is its scalar repeated.
    def hierarchical_ms_batch(self, point: AccessPoint, sizes) -> "np.ndarray":
        return _repeat(self.hierarchical_ms(point), sizes)

    def direct_ms_batch(self, point: AccessPoint, sizes) -> "np.ndarray":
        return _repeat(self.direct_ms(point), sizes)

    def via_l1_ms_batch(self, point: AccessPoint, sizes) -> "np.ndarray":
        return _repeat(self.via_l1_ms(point), sizes)

    def table3_row(self, point: AccessPoint) -> dict[str, float]:
        """One row of the paper's Table 3 for this bound."""
        return {
            "hierarchical": self.hierarchical_ms(point),
            "direct": self.direct_ms(point),
            "via_l1": self.via_l1_ms(point),
        }


def _repeat(value: float, sizes) -> "np.ndarray":
    """``value`` once per size, as the scalar loop would price them."""
    import numpy as np

    return np.full(len(sizes), value, dtype=np.float64)
