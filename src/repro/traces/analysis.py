"""Trace characterization (regenerates the paper's Table 4 view).

:func:`characterize` computes the per-trace summary statistics the paper
reports -- client count, access count, distinct URLs, span in days -- plus
auxiliary locality measures used to sanity-check the synthetic generators:
requests per client, distinct/request ratio, uncachable and error request
fractions, and the share of requests that are re-references.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from repro.common.units import DAYS
from repro.traces.records import Trace


@dataclass(frozen=True)
class TraceCharacteristics:
    """Aggregate statistics of one trace (one row of Table 4, extended)."""

    profile_name: str
    n_clients: int
    n_requests: int
    n_distinct_objects: int
    days: float
    total_bytes: int
    mean_object_bytes: float
    frac_uncachable_requests: float
    frac_error_requests: float
    frac_re_references: float
    max_object_popularity: int

    @property
    def distinct_ratio(self) -> float:
        """Distinct objects per request (Table 4 column ratio)."""
        return self.n_distinct_objects / self.n_requests if self.n_requests else 0.0

    def as_table_row(self) -> dict[str, str]:
        """Format as the columns of the paper's Table 4."""
        return {
            "Trace": self.profile_name,
            "# of Clients": f"{self.n_clients:,}",
            "# of Accesses": f"{self.n_requests:,}",
            "# of Distinct URLs": f"{self.n_distinct_objects:,}",
            "# of Days": f"{self.days:.1f}",
        }


def characterize(trace: Trace) -> TraceCharacteristics:
    """Compute :class:`TraceCharacteristics` for a trace."""
    columns = trace.columns()
    n_requests = len(columns)
    popularity = np.unique(columns.object, return_counts=True)[1]
    n_distinct = len(popularity)
    total_bytes = trace.total_bytes()
    uncachable = int(np.count_nonzero(~columns.cacheable))
    errors = int(np.count_nonzero(columns.error))
    span = float(columns.time[-1] - columns.time[0]) if n_requests else 0.0
    return TraceCharacteristics(
        profile_name=trace.profile_name,
        n_clients=trace.distinct_clients(),
        n_requests=n_requests,
        n_distinct_objects=n_distinct,
        days=span / DAYS,
        total_bytes=total_bytes,
        mean_object_bytes=total_bytes / n_requests if n_requests else 0.0,
        frac_uncachable_requests=uncachable / n_requests if n_requests else 0.0,
        frac_error_requests=errors / n_requests if n_requests else 0.0,
        frac_re_references=(n_requests - n_distinct) / n_requests if n_requests else 0.0,
        max_object_popularity=int(popularity.max(initial=0)),
    )


def popularity_histogram(trace: Trace, top: int = 20) -> list[tuple[int, int]]:
    """Return the ``top`` most-referenced objects as ``(object_id, count)``.

    Useful for eyeballing the Zipf head of a generated trace.
    """
    popularity: Counter[int] = Counter(trace.columns().object.tolist())
    return popularity.most_common(top)


class _FenwickTree:
    """Prefix-sum tree used by the reuse-distance computation."""

    def __init__(self, size: int) -> None:
        self._tree = [0] * (size + 1)

    def add(self, index: int, delta: int) -> None:
        index += 1
        while index < len(self._tree):
            self._tree[index] += delta
            index += index & -index

    def prefix_sum(self, index: int) -> int:
        """Sum of entries 0..index-1."""
        total = 0
        while index > 0:
            total += self._tree[index]
            index -= index & -index
        return total


def reuse_distances(trace: Trace) -> list[int]:
    """LRU stack distance of every re-reference in the trace.

    The reuse distance of an access is the number of *distinct* objects
    referenced since the previous access to the same object -- exactly the
    LRU stack depth at which the access would hit.  First references have
    no distance and are omitted.  This is the temporal-locality structure
    that determines how cache size maps to hit rate (Figure 2's capacity
    curve is its integral), so it is the key statistic for validating a
    synthetic workload's locality.

    Runs in O(n log n) via a Fenwick tree over reference positions.
    """
    objects = trace.columns().object.tolist()
    tree = _FenwickTree(len(objects))
    last_position: dict[int, int] = {}
    distances: list[int] = []
    for position, object_id in enumerate(objects):
        previous = last_position.get(object_id)
        if previous is not None:
            # Count distinct objects touched strictly after `previous`.
            distances.append(
                tree.prefix_sum(position) - tree.prefix_sum(previous + 1)
            )
            tree.add(previous, -1)
        tree.add(position, +1)
        last_position[object_id] = position
    return distances


def reuse_distance_cdf(trace: Trace, points: list[int]) -> dict[int, float]:
    """Fraction of re-references with reuse distance <= each point.

    ``cdf[d]`` is the hit rate an LRU cache holding ``d`` objects would
    achieve on the trace's re-references -- a size-to-hit-rate curve
    derived without simulating any cache.
    """
    distances = sorted(reuse_distances(trace))
    if not distances:
        return {point: 0.0 for point in points}
    import bisect

    return {
        point: bisect.bisect_right(distances, point) / len(distances)
        for point in points
    }


def sharing_profile(trace: Trace) -> dict[int, int]:
    """Histogram: number of objects referenced by exactly ``k`` clients.

    The degree of cross-client sharing drives how much cooperative caching
    can help (Figure 3); this exposes it directly.
    """
    clients_per_object: dict[int, set[int]] = {}
    for object_id, client in trace.columns().fields("object", "client"):
        clients_per_object.setdefault(object_id, set()).add(client)
    histogram: Counter[int] = Counter(len(v) for v in clients_per_object.values())
    return dict(sorted(histogram.items()))
