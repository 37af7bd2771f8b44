"""Load-dependent access costs (the paper's untested hypothesis).

Section 2.1.1: "in our experiments, the caches were idle ... If the caches
were heavily loaded, queuing delays and implementation inefficiencies of
the caches might significantly increase the per-hop costs we observe.
Busy nodes would probably increase the importance of reducing the number
of hops in a cache system."

:class:`LoadAwareCostModel` makes that testable.  It wraps any base cost
model and inflates the *cache-service* share of each access by the classic
M/M/1 sojourn factor ``1 / (1 - rho)`` for every cache level traversed,
where ``rho`` is that level's utilization.  Utilizations rise with the
hierarchy: a shared L3 root serves every client's misses, so it saturates
first -- which is exactly why multi-hop paths through high levels hurt
more as load grows.

The ``load_sensitivity`` experiment sweeps the load factor and shows the
hint architecture's speedup widening with load, confirming the hypothesis.
"""

from __future__ import annotations

from repro.netmodel.model import AccessPoint, CostModel

#: Fraction of an access's cost that is cache service time (CPU + disk at
#: the proxy) as opposed to pure network propagation; only the service
#: share queues.  Derived from the Rousskov components, where disk +
#: request parsing are roughly half the total on cache hits.
_SERVICE_SHARE = 0.5


class LoadAwareCostModel(CostModel):
    """Wrap a cost model with per-level M/M/1 queueing inflation.

    Args:
        base: The idle-system cost model being wrapped.
        load: System load factor in ``[0, 1)``: the utilization of the
            busiest (root) cache.  Lower levels see proportionally less:
            utilization at L1 is ``load * l1_share`` etc.
        level_shares: Relative utilization of each cache level; defaults
            reflect that higher, more-shared caches concentrate traffic.
    """

    def __init__(
        self,
        base: CostModel,
        load: float,
        level_shares: dict[AccessPoint, float] | None = None,
    ) -> None:
        if not 0.0 <= load < 1.0:
            raise ValueError(f"load must be in [0, 1), got {load}")
        self.base = base
        self.load = load
        self.name = f"{base.name}+load{load:g}"
        self._shares = level_shares or {
            AccessPoint.L1: 0.35,
            AccessPoint.L2: 0.65,
            AccessPoint.L3: 1.0,
            AccessPoint.SERVER: 0.0,  # the origin is outside the cache system
        }

    # ------------------------------------------------------------------
    # inflation machinery
    # ------------------------------------------------------------------
    def _inflation(self, level: AccessPoint) -> float:
        """Sojourn-time multiplier for one cache level at current load."""
        rho = self.load * self._shares[level]
        return 1.0 / (1.0 - rho)

    def _inflate(self, idle_ms, levels: list[AccessPoint]):
        """Inflate the service share of a cost across traversed levels.

        The idle cost is split evenly across the traversed cache levels'
        service components; each component queues independently.
        ``idle_ms`` is a float or a float64 array: the same expression
        runs elementwise, IEEE operation for operation, so the batch
        methods equal the scalar ones bit for bit.
        """
        cache_levels = [lv for lv in levels if lv.is_cache]
        if not cache_levels:
            return idle_ms
        service = idle_ms * _SERVICE_SHARE / len(cache_levels)
        network = idle_ms - service * len(cache_levels)
        return network + sum(service * self._inflation(lv) for lv in cache_levels)

    @staticmethod
    def _traversed(point: AccessPoint) -> list[AccessPoint]:
        return [lv for lv in AccessPoint if lv <= point]

    @staticmethod
    def _direct(point: AccessPoint) -> list[AccessPoint]:
        return [point] if point.is_cache else []

    @staticmethod
    def _via_l1(point: AccessPoint) -> list[AccessPoint]:
        far = [point] if point.is_cache and point != AccessPoint.L1 else []
        return [AccessPoint.L1] + far

    # ------------------------------------------------------------------
    # CostModel interface
    # ------------------------------------------------------------------
    def hierarchical_ms(self, point: AccessPoint, size: int) -> float:
        idle = self.base.hierarchical_ms(point, size)
        return self._inflate(idle, self._traversed(point))

    def direct_ms(self, point: AccessPoint, size: int) -> float:
        return self._inflate(self.base.direct_ms(point, size), self._direct(point))

    def via_l1_ms(self, point: AccessPoint, size: int) -> float:
        return self._inflate(self.base.via_l1_ms(point, size), self._via_l1(point))

    def probe_ms(self, point: AccessPoint) -> float:
        return self._inflate(self.base.probe_ms(point), self._direct(point))

    # Batch pricing: the base model's batch array through the same
    # ``_inflate`` expression, elementwise.
    def hierarchical_ms_batch(self, point: AccessPoint, sizes) -> "np.ndarray":
        idle = self.base.hierarchical_ms_batch(point, sizes)
        return self._inflate(idle, self._traversed(point))

    def direct_ms_batch(self, point: AccessPoint, sizes) -> "np.ndarray":
        return self._inflate(self.base.direct_ms_batch(point, sizes), self._direct(point))

    def via_l1_ms_batch(self, point: AccessPoint, sizes) -> "np.ndarray":
        return self._inflate(self.base.via_l1_ms_batch(point, sizes), self._via_l1(point))
