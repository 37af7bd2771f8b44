"""Cost-model interface shared by all access-time parameterizations.

An :class:`AccessPoint` names *where* a request was ultimately satisfied:
the client's own L1 proxy, a cache at L2 distance (same regional subtree),
a cache at L3 distance (elsewhere in the system), or the origin server.

A :class:`CostModel` prices the three path shapes the paper studies
(Figure 1's three panels):

* ``hierarchical_ms`` -- the request walks up the data hierarchy level by
  level and the object is copied back down through every cache.
* ``direct_ms`` -- the client talks straight to the access point
  (Figure 1b; only realistic when clients may bypass their proxy).
* ``via_l1_ms`` -- the request goes through the client's L1 proxy, which
  then talks straight to the access point (Figure 1c).  This is the path
  shape of the hint architecture: at most one cache-to-cache hop.

All times are in **milliseconds**; sizes in **bytes**.
"""

from __future__ import annotations

import abc
from enum import IntEnum


class AccessPoint(IntEnum):
    """Where a request was satisfied, ordered by distance from the client."""

    L1 = 1
    L2 = 2
    L3 = 3
    SERVER = 4

    @property
    def is_cache(self) -> bool:
        """True for cache levels, False for the origin server."""
        return self is not AccessPoint.SERVER


class CostModel(abc.ABC):
    """Maps (path shape, access point, object size) to milliseconds."""

    #: Human-readable name used in experiment reports ("testbed", "min", "max").
    name: str = "abstract"

    @abc.abstractmethod
    def hierarchical_ms(self, point: AccessPoint, size: int) -> float:
        """Time to satisfy a request through the data hierarchy.

        ``point`` is the deepest level reached; ``SERVER`` means a full miss
        that traversed every level and then fetched from the origin.
        """

    @abc.abstractmethod
    def direct_ms(self, point: AccessPoint, size: int) -> float:
        """Time for the client to fetch straight from ``point``."""

    @abc.abstractmethod
    def via_l1_ms(self, point: AccessPoint, size: int) -> float:
        """Time to fetch from ``point`` through the client's L1 proxy only."""

    @abc.abstractmethod
    def probe_ms(self, point: AccessPoint) -> float:
        """Cost of a wasted control round-trip to ``point`` (no data moved).

        Charged when a stale hint sends a request to a cache that no longer
        holds the object (a *false positive*): the remote cache replies with
        an error code and the request then proceeds to the server.
        """

    # ------------------------------------------------------------------
    # batch (columnar) variants
    # ------------------------------------------------------------------
    # The fast engine prices whole batches of same-shaped accesses at once.
    # These defaults just loop the scalar methods, so every cost model is
    # batch-capable by construction; the shipped models (testbed,
    # Rousskov, load-aware) override them with vectorized versions that
    # replay the scalar arithmetic elementwise, bit-for-bit.

    def hierarchical_ms_batch(self, point: AccessPoint, sizes) -> "np.ndarray":
        """Elementwise :meth:`hierarchical_ms` over an array of sizes."""
        import numpy as np

        fn = self.hierarchical_ms
        return np.array([fn(point, s) for s in sizes.tolist()], dtype=np.float64)

    def direct_ms_batch(self, point: AccessPoint, sizes) -> "np.ndarray":
        """Elementwise :meth:`direct_ms` over an array of sizes."""
        import numpy as np

        fn = self.direct_ms
        return np.array([fn(point, s) for s in sizes.tolist()], dtype=np.float64)

    def via_l1_ms_batch(self, point: AccessPoint, sizes) -> "np.ndarray":
        """Elementwise :meth:`via_l1_ms` over an array of sizes."""
        import numpy as np

        fn = self.via_l1_ms
        return np.array([fn(point, s) for s in sizes.tolist()], dtype=np.float64)

    # ------------------------------------------------------------------
    # derived conveniences
    # ------------------------------------------------------------------
    def hint_lookup_ms(self) -> float:
        """Local hint-cache lookup cost.

        The prototype measured 4.3 microseconds for an in-memory lookup
        (section 3.2.1) -- negligible against network times, but modelled so
        the accounting is honest.
        """
        return 0.0043

    def speedup(self, baseline_ms: float, improved_ms: float) -> float:
        """Ratio baseline/improved, the paper's speedup convention."""
        if improved_ms <= 0:
            raise ValueError("improved time must be positive")
        return baseline_ms / improved_ms

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"
