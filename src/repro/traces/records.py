"""Request and trace records.

A :class:`Request` is one line of a proxy trace: a client asks for an object
at a point in time.  The simulator is trace-driven, so these records are the
only input the architectures see.

Design notes
------------

* ``object_id`` is a *dense* integer index (0..n_objects-1).  The 64-bit
  MD5-style identifiers the hint system and Plaxton trees use are derived
  on demand via :meth:`Trace.url_for` / :func:`repro.common.ids.object_id_from_url`;
  keeping the hot path on small ints keeps simulation memory and time down.
* ``version`` encodes strong-consistency semantics: the trace generator bumps
  an object's version when its modification process fires, and a cache
  holding an older version must treat the access as a communication miss
  (paper section 2.2.1).
* A trace's storage is columnar (:mod:`repro.traces.columns`): the
  generator and both readers build arrays, and the fast engine, the
  experiments and the helpers below read them.  ``Request`` rows are built
  only for a consumer that iterates ``requests`` -- the reference engine's
  per-request loop, the audit oracles -- or by hand in tests; it is a
  ``NamedTuple`` so those rows stay cheap to build and read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, NamedTuple

import numpy as np


class Request(NamedTuple):
    """One trace record.

    Attributes:
        time: Seconds since the start of the trace.
        client_id: Integer client identifier (stable for DEC/Berkeley-style
            traces; session-scoped for Prodigy-style dynamic-IP traces).
        object_id: Dense object index into the trace's object space.
        size: Object size in bytes at this access.
        version: Object version at this access; a bump since the last access
            means every cached copy is stale.
        cacheable: False for CGI/non-GET style requests that must always go
            to the origin server ("uncachable" in Figure 2).
        error: True for requests whose origin reply is an error ("error"
            class in Figure 2).
    """

    time: float
    client_id: int
    object_id: int
    size: int
    version: int
    cacheable: bool = True
    error: bool = False


@dataclass
class Trace:
    """A complete, time-ordered trace plus its object-space metadata.

    Attributes:
        profile_name: Name of the workload profile that generated the trace
            (``"dec"``, ``"berkeley"``, ``"prodigy"``, or a custom name).
        requests: Time-sorted request records: a columnar
            :class:`~repro.traces.columns.LazyRequestList` for a generated
            or loaded trace, a plain list for one built by hand.
        n_objects: Size of the dense object-id space.
        n_clients: Number of distinct client ids that may appear.
        duration: Trace duration in seconds.
        warmup: Suggested warmup boundary in seconds; the paper uses the
            first two days of each trace to warm caches before measuring.
    """

    profile_name: str
    requests: list[Request]
    n_objects: int
    n_clients: int
    duration: float
    warmup: float = 0.0
    #: Lazily filled by url_for; excluded from equality so a used trace
    #: still compares equal to a freshly generated/deserialized twin.
    _url_cache: dict[int, str] = field(default_factory=dict, repr=False, compare=False)
    #: Memoized columnar view (repro.traces.columns.TraceColumns); excluded
    #: from equality for the same reason as the URL cache.
    _columns: object = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        columns = getattr(self.requests, "columns", None)
        if columns is not None:
            # Columnar-backed (lazy) request list: validate sortedness on
            # the time array without materializing row tuples, and memoize
            # the columns so Trace.columns() is free.
            if not columns.is_time_sorted():
                raise ValueError("trace requests must be sorted by time")
            self._columns = columns
            return
        for earlier, later in zip(self.requests, self.requests[1:]):
            if later.time < earlier.time:
                raise ValueError("trace requests must be sorted by time")

    @classmethod
    def from_columns(
        cls,
        profile_name: str,
        columns,
        n_objects: int,
        n_clients: int,
        duration: float,
        warmup: float = 0.0,
    ) -> "Trace":
        """Build a trace over columnar arrays without materializing rows.

        The request list is a :class:`~repro.traces.columns.LazyRequestList`,
        so row tuples are only built if a consumer actually indexes or
        iterates ``requests`` (the fast engine never does).
        """
        from repro.traces.columns import LazyRequestList

        return cls(
            profile_name=profile_name,
            requests=LazyRequestList(columns),
            n_objects=n_objects,
            n_clients=n_clients,
            duration=duration,
            warmup=warmup,
        )

    def columns(self):
        """The columnar (structure-of-arrays) view of ``requests``, memoized."""
        if self._columns is None:
            from repro.traces.columns import TraceColumns

            self._columns = TraceColumns.from_requests(self.requests)
        return self._columns

    def __len__(self) -> int:
        return len(self.requests)

    def __iter__(self) -> Iterator[Request]:
        return iter(self.requests)

    def url_for(self, object_id: int) -> str:
        """Return the synthetic URL for a dense object id.

        The URL only matters where the paper hashes URLs (hint records,
        Plaxton object ids); it is deterministic so ids are stable across
        runs and processes.
        """
        cached = self._url_cache.get(object_id)
        if cached is None:
            cached = f"http://origin-{object_id % 997}.example.com/obj/{object_id}"
            self._url_cache[object_id] = cached
        return cached

    def measured_requests(self) -> list[Request]:
        """Requests at or after the warmup boundary (the measured window)."""
        return [r for r in self.requests if r.time >= self.warmup]

    def total_bytes(self) -> int:
        """Sum of request sizes over the whole trace."""
        return int(self.columns().size.sum())

    def distinct_objects(self) -> int:
        """Number of distinct object ids referenced (Table 4 'Distinct URLs')."""
        return len(np.unique(self.columns().object))

    def distinct_clients(self) -> int:
        """Number of distinct client ids appearing in the trace."""
        return len(np.unique(self.columns().client))
