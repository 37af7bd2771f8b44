"""Time-series telemetry: typed instruments sampled over simulated time.

The run-level scalars in :class:`repro.sim.metrics.SimMetrics` answer
"what happened over the measured window"; this module answers "*when* did
it happen".  Three pieces compose:

* :class:`MetricsRegistry` -- a typed registry of named, labelled
  instruments (:class:`Counter` / :class:`Gauge` / :class:`Histogram`).
  Instruments are either *stored* (incremented on the request path) or
  *callback-backed* (a ``fn`` read at snapshot time, e.g. a cache's
  ``occupancy_bytes``), so instrumenting a layer costs nothing until someone
  actually samples it.  A group reader (:meth:`MetricsRegistry.bind_reader`)
  snapshots many instruments in one call: one pass over a level's caches,
  a directory or an injector per snapshot.
* :class:`Timeline` -- snapshots every instrument into fixed-width bins
  of **simulated** time (``bin_s``, default one hour).  Each close keeps
  one float64 vector; counter *deltas* and gauge *values*
  (:class:`TimelineColumns`) and the per-bin dict rows are derived when
  read.  Deltas telescope, so the per-bin rows re-sum exactly to the run
  totals.
* :class:`RunTelemetry` -- the engine-facing bundle: one per
  :func:`repro.sim.engine.run_simulation` call.  It registers the
  request-path counters (labelled ``window=warmup|measured`` so the
  measured slice reconciles with ``SimMetrics`` while warmup bins feed
  the convergence check), binds the architecture's caches and hint
  directory via :func:`bind_architecture`, and mirrors the fault
  injector's node states as up/down gauges via :func:`bind_injector`.
  The reference engine accounts request by request; the fast engine
  defers a batch's rows and settles them at once.

Telemetry is strictly opt-in: without a :class:`RunTelemetry` the engine
pays one pointer check per site, and nothing here ever feeds the content
addresses in :mod:`repro.runner.fingerprint` -- telemetry is output
*about* a run, never input *to* one.
"""

from __future__ import annotations

import bisect
import math
import re
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterator, Mapping, Sequence

import numpy as np

from repro.netmodel.model import AccessPoint
from repro.obs import profiling

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from repro.faults.injector import FaultInjector
    from repro.hierarchy.base import AccessResult, Architecture
    from repro.traces.records import Request

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Default response-time buckets (ms), chosen to straddle the testbed's
#: charge points (local hit ~2 ms, probes ~10s of ms, origin ~1-2 s).
DEFAULT_BUCKETS_MS = (
    1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0,
    200.0, 500.0, 1000.0, 2000.0, 5000.0, 10000.0,
)


def _escape_label_value(value: str) -> str:
    """Escape per the Prometheus exposition format: ``\\``, ``"``, newline."""
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


_UNESCAPE_RE = re.compile(r"\\(.)")


def _unescape_label_value(raw: str) -> str:
    # Single pass: sequential str.replace calls corrupt values where one
    # replacement manufactures another's pattern (a literal backslash
    # followed by ``n`` escapes to ``\\n``, which ``.replace("\\n", ...)``
    # would then wrongly turn into a newline).
    return _UNESCAPE_RE.sub(lambda m: "\n" if m.group(1) == "n" else m.group(1), raw)


def render_metric_key(name: str, labels: Mapping[str, str]) -> str:
    """Canonical ``name{k="v",...}`` selector (labels sorted by key).

    This one renderer is shared by the Prometheus exposition and the
    timeline rows, so a JSONL consumer can match row keys against scrape
    selectors verbatim.
    """
    if not labels:
        return name
    inner = ",".join(
        f'{key}="{_escape_label_value(str(labels[key]))}"' for key in sorted(labels)
    )
    return f"{name}{{{inner}}}"


def parse_metric_key(key: str) -> tuple[str, dict[str, str]]:
    """Invert :func:`render_metric_key`; raises ``ValueError`` on bad input."""
    brace = key.find("{")
    if brace == -1:
        if not _NAME_RE.match(key):
            raise ValueError(f"bad metric name {key!r}")
        return key, {}
    name, rest = key[:brace], key[brace:]
    if not _NAME_RE.match(name) or not rest.endswith("}"):
        raise ValueError(f"bad metric key {key!r}")
    labels: dict[str, str] = {}
    body = rest[1:-1]
    position = 0
    pattern = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"(,|$)')
    while position < len(body):
        match = pattern.match(body, position)
        if match is None:
            raise ValueError(f"bad label block in {key!r}")
        labels[match.group(1)] = _unescape_label_value(match.group(2))
        position = match.end()
    return name, labels


class Instrument:
    """Base of all instruments: a name, a label set, and a canonical key."""

    kind = "abstract"
    #: Snapshot series the instrument contributes (a histogram: sum, count).
    width = 1

    def __init__(self, name: str, labels: Mapping[str, str]) -> None:
        self.name = name
        self.labels = dict(labels)
        self.key = render_metric_key(name, self.labels)
        #: ``(reader, column)`` once :meth:`MetricsRegistry.bind_reader`
        #: covers this instrument; ``None`` reads it on its own.
        self.source: tuple[_Reader, int] | None = None

    def series(self) -> tuple[float, ...]:
        """The instrument's snapshot values, read on their own."""
        return (self.value,)


class Counter(Instrument):
    """Monotonically non-decreasing count.

    Either *stored* (use :meth:`inc`) or *callback-backed* (constructed
    with ``fn``; the source -- e.g. ``cache.insertions`` -- must itself be
    monotone).  A callback-backed counter rejects :meth:`inc`.
    """

    kind = "counter"

    def __init__(
        self,
        name: str,
        labels: Mapping[str, str],
        fn: Callable[[], float] | None = None,
    ) -> None:
        super().__init__(name, labels)
        self._value = 0.0
        self._fn = fn

    def inc(self, amount: float = 1.0) -> None:
        if self._fn is not None:
            raise RuntimeError(f"counter {self.key} is callback-backed; cannot inc()")
        if amount < 0:
            raise ValueError(f"counter increments must be non-negative, got {amount}")
        self._value += amount

    def bind(self, fn: Callable[[], float]) -> None:
        """(Re)attach the value callback -- used when a fresh architecture
        re-registers under an existing instrument key.  A group reader
        bound to the old object no longer covers the instrument."""
        self._fn = fn
        self.source = None

    @property
    def value(self) -> float:
        return float(self._fn()) if self._fn is not None else self._value


class Gauge(Instrument):
    """Point-in-time value (occupancy bytes, node up/down, load factor)."""

    kind = "gauge"

    def __init__(
        self,
        name: str,
        labels: Mapping[str, str],
        fn: Callable[[], float] | None = None,
    ) -> None:
        super().__init__(name, labels)
        self._value = 0.0
        self._fn = fn

    def set(self, value: float) -> None:
        if self._fn is not None:
            raise RuntimeError(f"gauge {self.key} is callback-backed; cannot set()")
        self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.set(self._value + amount)

    def dec(self, amount: float = 1.0) -> None:
        self.set(self._value - amount)

    def bind(self, fn: Callable[[], float]) -> None:
        self._fn = fn
        self.source = None

    @property
    def value(self) -> float:
        return float(self._fn()) if self._fn is not None else self._value


class Histogram(Instrument):
    """Fixed-bucket distribution with Prometheus cumulative semantics.

    Exposes ``sum``/``count`` (both monotone, so the timeline treats them
    as counters) and per-bucket cumulative counts for the text exposition.
    """

    kind = "histogram"
    width = 2

    def __init__(
        self,
        name: str,
        labels: Mapping[str, str],
        buckets: Sequence[float] = DEFAULT_BUCKETS_MS,
    ) -> None:
        super().__init__(name, labels)
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if len(set(bounds)) != len(bounds):
            raise ValueError(f"duplicate histogram bounds in {bounds}")
        self.bounds = bounds
        self._bucket_counts = [0] * (len(bounds) + 1)  # last = +Inf overflow
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        if value < 0:
            raise ValueError(f"histogram observations must be non-negative, got {value}")
        self._bucket_counts[bisect.bisect_left(self.bounds, value)] += 1
        self.sum += value
        self.count += 1

    def series(self) -> tuple[float, ...]:
        return (self.sum, float(self.count))

    def _bucket(self, values: np.ndarray) -> None:
        """Count ``values`` into the buckets as :meth:`observe` would; the
        caller accounts ``sum`` and ``count``."""
        added = np.bincount(
            np.searchsorted(self.bounds, values, side="left"),
            minlength=len(self._bucket_counts),
        )
        self._bucket_counts = [
            held + more for held, more in zip(self._bucket_counts, added.tolist())
        ]

    def cumulative_buckets(self) -> list[tuple[float, int]]:
        """``(le_bound, cumulative_count)`` pairs ending with ``(inf, count)``."""
        pairs: list[tuple[float, int]] = []
        running = 0
        for bound, bucket in zip(self.bounds, self._bucket_counts):
            running += bucket
            pairs.append((bound, running))
        pairs.append((math.inf, self.count))
        return pairs


class _Reader:
    """One snapshot call covering several instruments' series."""

    __slots__ = ("read", "width")

    def __init__(self, read: Callable[[], Sequence[float]], width: int) -> None:
        self.read = read
        self.width = width


class _Plan:
    """How one snapshot of a registry (under one ``arch`` filter) is read.

    ``readers`` fill one float64 vector, each its own columns starting at
    ``offsets[reader]``; ``counter_cols``/``gauge_cols`` pick the monotone
    and point-in-time series out of it in exposition order.
    """

    __slots__ = (
        "generation", "readers", "offsets",
        "counter_keys", "counter_cols", "gauge_keys", "gauge_cols",
    )

    def __init__(self, generation, readers, offsets, counters, gauges) -> None:
        self.generation = generation
        self.readers = tuple(reader.read for reader in readers)
        self.offsets = offsets
        self.counter_keys = tuple(key for key, _ in counters)
        self.counter_cols = np.array([col for _, col in counters], dtype=np.int64)
        self.gauge_keys = tuple(key for key, _ in gauges)
        self.gauge_cols = np.array([col for _, col in gauges], dtype=np.int64)

    def read(self) -> np.ndarray:
        values: list = []
        for read in self.readers:
            values += read()
        return np.array(values, dtype=np.float64)


@dataclass
class _Family:
    """One metric name: its kind, label schema, help text, and children."""

    name: str
    kind: str
    label_keys: tuple[str, ...]
    help: str
    instruments: dict[tuple[str, ...], Instrument] = field(default_factory=dict)


class MetricsRegistry:
    """Typed, labelled instrument registry with get-or-create semantics.

    Invariants (enforced, pinned by tests):

    * a metric name has exactly one kind -- re-registering ``foo`` as a
      gauge after a counter raises ``TypeError``;
    * a metric name has exactly one label-key schema -- children may vary
      label *values* but never label *keys*;
    * names and label keys must be Prometheus-legal identifiers;
    * the same ``(name, label values)`` always returns the same instrument.
    """

    def __init__(self) -> None:
        self._families: dict[str, _Family] = {}
        #: Bumped on every new family/child, rebind and group reader;
        #: snapshot plans key off it.
        self._generation = 0
        self._plans: dict[str | None, _Plan] = {}

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def counter(
        self,
        name: str,
        labels: Mapping[str, str] | None = None,
        *,
        help: str = "",
        fn: Callable[[], float] | None = None,
    ) -> Counter:
        """Get or create the counter child for ``(name, labels)``."""
        instrument = self._get_or_create(name, "counter", labels, help, fn=fn)
        assert isinstance(instrument, Counter)
        return instrument

    def gauge(
        self,
        name: str,
        labels: Mapping[str, str] | None = None,
        *,
        help: str = "",
        fn: Callable[[], float] | None = None,
    ) -> Gauge:
        """Get or create the gauge child for ``(name, labels)``."""
        instrument = self._get_or_create(name, "gauge", labels, help, fn=fn)
        assert isinstance(instrument, Gauge)
        return instrument

    def histogram(
        self,
        name: str,
        labels: Mapping[str, str] | None = None,
        *,
        help: str = "",
        buckets: Sequence[float] = DEFAULT_BUCKETS_MS,
    ) -> Histogram:
        """Get or create the histogram child for ``(name, labels)``."""
        instrument = self._get_or_create(name, "histogram", labels, help, buckets=buckets)
        assert isinstance(instrument, Histogram)
        return instrument

    def bind_reader(
        self, instruments: Sequence[Instrument], read: Callable[[], Sequence[float]]
    ) -> _Reader:
        """Snapshot ``instruments`` through one ``read()`` call.

        ``read`` returns every instrument's series in order (a histogram's
        sum, then its count).  A timeline close calls it once instead of
        each instrument's own callback, so a bound cache list, directory
        or injector is read in one pass per close.  ``value`` -- and so
        the Prometheus exposition -- still reads each instrument alone.
        """
        reader = _Reader(read, sum(instrument.width for instrument in instruments))
        column = 0
        for instrument in instruments:
            instrument.source = (reader, column)
            column += instrument.width
        self._generation += 1
        return reader

    def _get_or_create(
        self,
        name: str,
        kind: str,
        labels: Mapping[str, str] | None,
        help: str,
        fn: Callable[[], float] | None = None,
        buckets: Sequence[float] | None = None,
    ) -> Instrument:
        if not _NAME_RE.match(name):
            raise ValueError(f"bad metric name {name!r}")
        labels = {str(k): str(v) for k, v in (labels or {}).items()}
        for key in labels:
            if not _LABEL_RE.match(key):
                raise ValueError(f"bad label key {key!r} on metric {name!r}")
        label_keys = tuple(sorted(labels))
        family = self._families.get(name)
        if family is None:
            family = self._families[name] = _Family(
                name=name, kind=kind, label_keys=label_keys, help=help
            )
        else:
            if family.kind != kind:
                raise TypeError(
                    f"metric {name!r} is a {family.kind}, cannot re-register as {kind}"
                )
            if family.label_keys != label_keys:
                raise ValueError(
                    f"metric {name!r} uses label keys {family.label_keys}, "
                    f"got {label_keys}"
                )
            if help and not family.help:
                family.help = help
        child_key = tuple(labels[k] for k in label_keys)
        instrument = family.instruments.get(child_key)
        if instrument is None:
            if kind == "counter":
                instrument = Counter(name, labels, fn=fn)
            elif kind == "gauge":
                instrument = Gauge(name, labels, fn=fn)
            else:
                instrument = Histogram(name, labels, buckets=buckets or DEFAULT_BUCKETS_MS)
            family.instruments[child_key] = instrument
            self._generation += 1
        elif fn is not None:
            # A fresh run re-registering the same key rebinds the callback
            # to the new live object (e.g. a rebuilt cache).
            instrument.bind(fn)  # type: ignore[union-attr]
            self._generation += 1
        return instrument

    # ------------------------------------------------------------------
    # iteration / snapshots
    # ------------------------------------------------------------------
    def families(self) -> Iterator[_Family]:
        """Families sorted by metric name (exposition order)."""
        for name in sorted(self._families):
            yield self._families[name]

    def instruments(self) -> Iterator[Instrument]:
        """Every instrument, sorted by name then label values."""
        for family in self.families():
            for child_key in sorted(family.instruments):
                yield family.instruments[child_key]

    def _snapshot_plan(self, arch: str | None) -> _Plan:
        """Memoized read plan for one ``arch`` filter.

        Everything a snapshot needs besides the values themselves -- the
        sorted series order, the counter/gauge split, the rendered
        histogram ``_sum``/``_count`` keys and which reader fills which
        column -- is invariant between registrations, so it is built once
        per registration generation.  Instruments no group reader covers
        share one reader that reads each of them on its own.
        """
        plan = self._plans.get(arch)
        if plan is not None and plan.generation == self._generation:
            return plan
        members = [
            instrument
            for instrument in self.instruments()
            if arch is None or instrument.labels.get("arch", arch) == arch
        ]
        sources = {}
        loose = tuple(instrument for instrument in members if instrument.source is None)
        if loose:
            reader = _Reader(
                lambda: [value for each in loose for value in each.series()],
                sum(instrument.width for instrument in loose),
            )
            column = 0
            for instrument in loose:
                sources[instrument] = (reader, column)
                column += instrument.width
        readers: list[_Reader] = []
        offsets: dict[_Reader, int] = {}
        counters: list[tuple[str, int]] = []
        gauges: list[tuple[str, int]] = []
        width = 0
        for instrument in members:
            reader, column = sources.get(instrument) or instrument.source
            if reader not in offsets:
                offsets[reader] = width
                readers.append(reader)
                width += reader.width
            column += offsets[reader]
            if isinstance(instrument, Histogram):
                counters.append(
                    (render_metric_key(instrument.name + "_sum", instrument.labels), column)
                )
                counters.append(
                    (render_metric_key(instrument.name + "_count", instrument.labels), column + 1)
                )
            elif isinstance(instrument, Counter):
                counters.append((instrument.key, column))
            else:
                gauges.append((instrument.key, column))
        plan = _Plan(self._generation, readers, offsets, counters, gauges)
        self._plans[arch] = plan
        return plan

    def counter_items(self, *, arch: str | None = None) -> Iterator[tuple[str, float]]:
        """``(key, value)`` for everything monotone: counters plus each
        histogram's ``_sum``/``_count`` series.

        ``arch`` filters to instruments whose ``arch`` label matches (or
        that carry no ``arch`` label at all) -- a shared registry can hold
        several runs' instruments without cross-talk in their timelines.
        """
        plan = self._snapshot_plan(arch)
        values = plan.read()[plan.counter_cols].tolist()
        yield from zip(plan.counter_keys, values)

    def gauge_items(self, *, arch: str | None = None) -> Iterator[tuple[str, float]]:
        """``(key, value)`` for every gauge (same ``arch`` filter rule)."""
        plan = self._snapshot_plan(arch)
        values = plan.read()[plan.gauge_cols].tolist()
        yield from zip(plan.gauge_keys, values)


@dataclass
class TimelineColumns:
    """A timeline's closed bins, column-major.

    ``counters`` holds each bin's counter *deltas* and ``gauges`` each
    bin's gauge values, one row per bin and one column per key.  A gauge
    first registered mid-run is absent from the bins before
    ``gauge_since[column]``.  This is what sharded workers ship back and
    what :func:`merge_timeline_columns` sums; :meth:`rows` derives the
    per-bin dict rows (zero deltas dropped).
    """

    arch: str
    bin_s: float
    t_end: list[float]
    counter_keys: tuple[str, ...]
    counters: np.ndarray
    gauge_keys: tuple[str, ...]
    gauges: np.ndarray
    gauge_since: np.ndarray

    def rows(self) -> list[dict]:
        """One dict row per bin: counters with a non-zero delta, gauges
        present in that bin."""
        counter_keys, gauge_keys = self.counter_keys, self.gauge_keys
        since = self.gauge_since.tolist()
        partial = any(since)
        rows = []
        for index, (t_end, deltas, values) in enumerate(
            zip(self.t_end, self.counters.tolist(), self.gauges.tolist())
        ):
            if partial:
                gauges = {
                    key: value
                    for key, value, first in zip(gauge_keys, values, since)
                    if first <= index
                }
            else:
                gauges = dict(zip(gauge_keys, values))
            rows.append(
                {
                    "arch": self.arch,
                    "bin": index,
                    "t_start": index * self.bin_s,
                    "t_end": t_end,
                    "counters": {
                        key: delta
                        for key, delta in zip(counter_keys, deltas)
                        if delta != 0.0
                    },
                    "gauges": gauges,
                }
            )
        return rows


class Timeline:
    """Snapshots a registry into fixed-width simulated-time bins.

    Bin ``i`` covers ``[i*bin_s, (i+1)*bin_s)``; a request exactly on a
    bin edge therefore belongs to the *later* bin (and closes the earlier
    one first).  Rows are emitted for every bin in ``[0, end_time]``,
    including empty ones, so the series has no gaps; the final row may be
    partial (``t_end == end_time``) when the trace does not end on an
    edge.  Counter values are recorded as deltas -- they telescope, so
    summing any column over all rows reproduces the run total exactly.

    Closed bins are kept columnar: each close reads the registry into one
    float64 vector through the memoized snapshot plan (one call per group
    reader).  Deltas, zero-filtering and dict rows are derived only when
    :attr:`rows` or :meth:`columns` is read.
    """

    def __init__(
        self, registry: MetricsRegistry, *, bin_s: float = 3600.0, arch: str | None = None
    ) -> None:
        if bin_s <= 0:
            raise ValueError(f"bin width must be positive, got {bin_s}")
        self.registry = registry
        self.bin_s = float(bin_s)
        self.arch = arch
        self._bin = 0
        self._plans: list[_Plan] = []
        self._values: list[np.ndarray] = []
        self._t_ends: list[float] = []
        self._rows: list[dict] | None = None
        self._close_hooks: list[Callable[[float], None]] = []
        self._finished = False

    def add_close_hook(self, hook: Callable[[float], None]) -> None:
        """Call ``hook(t_end)`` just before each bin's snapshot.

        :class:`RunTelemetry` registers the fault injector's ``advance``
        here, so up/down gauges reflect the plan's state exactly at the
        bin boundary (``advance`` is monotone and idempotent, and the
        boundary never exceeds the next request's time).
        """
        self._close_hooks.append(hook)

    def advance(self, t: float) -> None:
        """Clock moved to ``t``: close every bin that ended at or before it."""
        target = int(t // self.bin_s)
        while self._bin < target:
            self._close((self._bin + 1) * self.bin_s)

    def finish(self, end_time: float) -> None:
        """Close out the run at ``end_time`` (idempotent).

        Emits all remaining bins through ``end_time``; the last row's
        ``t_end`` is ``end_time`` itself when the run ends mid-bin.
        """
        if self._finished:
            return
        target = int(end_time // self.bin_s)
        if end_time > 0 and end_time == target * self.bin_s:
            target -= 1  # ending exactly on an edge: the last bin is full
        target = max(target, self._bin)
        while self._bin < target:
            self._close((self._bin + 1) * self.bin_s)
        self._close(max(end_time, self._bin * self.bin_s))
        self._finished = True

    @property
    def rows(self) -> list[dict]:
        """The per-bin rows closed so far (derived once, then cached)."""
        if self._rows is None:
            self._rows = self.columns().rows()
        return self._rows

    def columns(self) -> TimelineColumns:
        """The closed bins as counter-delta and gauge matrices."""
        bins = len(self._values)
        last = self._plans[-1] if bins else self.registry._snapshot_plan(self.arch)
        counters = np.zeros((bins, len(last.counter_keys)))
        gauges = np.zeros((bins, len(last.gauge_keys)))
        since = np.zeros(len(last.gauge_keys), dtype=np.int64)
        start = 0
        while start < bins:
            plan = self._plans[start]
            stop = start + 1
            while stop < bins and self._plans[stop] is plan:
                stop += 1
            block = np.vstack(self._values[start:stop])
            if plan is last:
                counters[start:stop] = block[:, plan.counter_cols]
                gauges[start:stop] = block[:, plan.gauge_cols]
            else:
                # Bins closed before a later registration: series only
                # ever get added, so map this plan's keys into the last
                # plan's layout (absent counters read 0.0, as the first
                # delta of a new series is taken against 0.0).
                counter_at = {key: j for j, key in enumerate(last.counter_keys)}
                gauge_at = {key: j for j, key in enumerate(last.gauge_keys)}
                counters[start:stop, [counter_at[k] for k in plan.counter_keys]] = (
                    block[:, plan.counter_cols]
                )
                present = [gauge_at[k] for k in plan.gauge_keys]
                gauges[start:stop, present] = block[:, plan.gauge_cols]
                absent = np.ones(len(last.gauge_keys), dtype=bool)
                absent[present] = False
                since[absent] = stop
            start = stop
        deltas = np.diff(counters, axis=0, prepend=np.zeros((1, counters.shape[1])))
        return TimelineColumns(
            arch=self.arch or "",
            bin_s=self.bin_s,
            t_end=list(self._t_ends),
            counter_keys=last.counter_keys,
            counters=deltas,
            gauge_keys=last.gauge_keys,
            gauges=gauges,
            gauge_since=since,
        )

    def _close(self, t_end: float) -> None:
        # Host-profiling hook: bin closes are the telemetry hot spot (one
        # registry snapshot each), so they get their own span when a
        # profiler is attached -- one pointer check per *bin* otherwise.
        profiler = profiling.active()
        if profiler is not None:
            with profiler.span(
                "telemetry_bin_close",
                category="telemetry",
                bin=self._bin,
                arch=self.arch or "",
            ):
                self._close_impl(t_end)
            return
        self._close_impl(t_end)

    def _close_impl(self, t_end: float) -> None:
        for hook in self._close_hooks:
            hook(t_end)
        plan = self.registry._snapshot_plan(self.arch)
        self._plans.append(plan)
        self._values.append(plan.read())
        self._t_ends.append(t_end)
        self._rows = None
        self._bin += 1

    def _patch(self, index: int, reader: _Reader, values: np.ndarray) -> None:
        """Overwrite ``reader``'s columns in closed bin ``index``."""
        start = self._plans[index].offsets[reader]
        self._values[index][start : start + reader.width] = values
        self._rows = None


#: A window channel's result-flag counters, in series order.
_FLAGS = (
    "false_positive",
    "false_negative",
    "suboptimal_positive",
    "push_hit",
    "timeout_fallback",
    "stale_hint_forward",
)


class _WindowChannel:
    """One window's ("warmup"/"measured") instruments, pre-resolved.

    The request path used to pay a tuple construction + dict hash per
    instrument per request (eight of them).  Resolving each call site's
    instrument once at ``begin`` and holding it in a slot (or a list
    indexed by the AccessPoint int) turns ``observe`` into direct
    attribute access -- the memoized-lookup satellite of the fastpath PR.

    Its snapshot series, in order: requests and bytes per access point,
    intercache bytes, the flags, fault milliseconds, then the response
    time's sum and count (``WIDTH`` in all).
    """

    __slots__ = (
        "requests",
        "bytes",
        "response",
        "intercache",
        *_FLAGS,
        "fault_ms",
        "counters",
    )

    WIDTH = 2 * len(AccessPoint) + 1 + len(_FLAGS) + 1 + 2

    def __init__(self, registry: MetricsRegistry, arch: str, window: str) -> None:
        # Index 0 is unused: AccessPoint ints start at 1.
        self.requests: list[Counter | None] = [None] * (len(AccessPoint) + 1)
        self.bytes: list[Counter | None] = [None] * (len(AccessPoint) + 1)
        for point in AccessPoint:
            labels = {"arch": arch, "point": point.name, "window": window}
            self.requests[int(point)] = registry.counter(
                "repro_requests_total",
                labels,
                help="Requests satisfied per access point",
            )
            self.bytes[int(point)] = registry.counter(
                "repro_bytes_total",
                labels,
                help="Bytes served per access point",
            )
        window_labels = {"arch": arch, "window": window}
        self.response = registry.histogram(
            "repro_response_time_ms",
            window_labels,
            help="Per-request response time distribution",
        )
        self.intercache = registry.counter(
            "repro_intercache_bytes_total",
            window_labels,
            help="Bytes moved cache-to-cache (remote hits)",
        )
        for flag in _FLAGS:
            setattr(
                self,
                flag,
                registry.counter(
                    "repro_result_flags_total",
                    {"arch": arch, "flag": flag, "window": window},
                    help="Per-request result pathology flags",
                ),
            )
        self.fault_ms = registry.counter(
            "repro_fault_added_ms_total",
            window_labels,
            help="Response-time milliseconds attributable to faults",
        )
        self.counters = (
            *self.requests[1:],
            *self.bytes[1:],
            self.intercache,
            *(getattr(self, flag) for flag in _FLAGS),
            self.fault_ms,
        )

    def values(self) -> list[float]:
        """The window's snapshot series (see the class docstring)."""
        response = self.response
        return [counter._value for counter in self.counters] + [
            response.sum,
            float(response.count),
        ]

    def steps(self, steps: np.ndarray, at: np.ndarray, *, point, size, time_ms,
              remote_hit, flags, fault_ms) -> None:
        """Lay rows ``at`` of a deferred batch out as per-series increments
        in ``steps`` (a column per series; ``flags`` in ``_FLAGS`` order)
        and bucket their response times."""
        served = len(AccessPoint)
        steps[at, point[at] - 1] = 1.0
        steps[at, served + point[at] - 1] = size[at]
        steps[at, 2 * served] = np.where(remote_hit[at], size[at], 0)
        for column, flag in enumerate(flags, start=2 * served + 1):
            steps[at, column] = flag[at]
        if fault_ms is not None:
            steps[at, -3] = fault_ms[at]
        steps[at, -2] = time_ms[at]
        steps[at, -1] = 1.0
        self.response._bucket(time_ms[at])

    def assign(self, values: list[float]) -> None:
        """Adopt settled series values (the inverse of :meth:`values`)."""
        for counter, value in zip(self.counters, values):
            counter._value = value
        self.response.sum = values[-2]
        self.response.count = int(values[-1])


class RunTelemetry:
    """Everything the engine needs to narrate one run over time.

    Construct one per :func:`repro.sim.engine.run_simulation` call (it
    refuses to be reused) and pass it as ``telemetry=``.  Several
    ``RunTelemetry`` objects may share one :class:`MetricsRegistry` -- the
    constant ``arch`` label keeps their instruments (and their timelines)
    apart, which is how the CLI's ``timeline`` verb exports all four
    architectures through one registry.

    The reference engine accounts each request as it happens
    (:meth:`observe`).  The fast engine classifies requests span by span
    as the clock advances but prices them a batch at a time, so it
    announces each span's rows with :meth:`defer` and accounts the whole
    batch with :meth:`settle`: bins that closed in between get their
    request-channel values from the batch's running sums.
    """

    def __init__(
        self, registry: MetricsRegistry | None = None, *, bin_s: float = 3600.0
    ) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self.bin_s = float(bin_s)
        self.timeline: Timeline | None = None
        self.arch = ""
        self._queued = 0
        self._pending_closes: list[tuple[int, int]] = []

    # ------------------------------------------------------------------
    # engine-facing lifecycle
    # ------------------------------------------------------------------
    def begin(
        self, architecture: "Architecture", injector: "FaultInjector | None" = None
    ) -> None:
        """Wire instruments for one run (engine calls this before the loop)."""
        if self.timeline is not None:
            raise RuntimeError("RunTelemetry drives exactly one run; build a new one")
        self.arch = architecture.name
        self.timeline = Timeline(self.registry, bin_s=self.bin_s, arch=self.arch)
        warmup = self._warmup = _WindowChannel(self.registry, self.arch, "warmup")
        measured = self._measured = _WindowChannel(self.registry, self.arch, "measured")
        self._channels = self.registry.bind_reader(
            [*warmup.counters, warmup.response, *measured.counters, measured.response],
            lambda: warmup.values() + measured.values(),
        )
        architecture.register_telemetry(self.registry)
        if injector is not None:
            bind_injector(self.registry, injector, arch=self.arch)
            self.timeline.add_close_hook(injector.advance)

    def advance(self, t: float) -> None:
        """Clock hook; the engine calls this *before* the injector advances."""
        timeline = self.timeline
        closed = timeline._bin
        timeline.advance(t)
        if self._queued:
            self._pending_closes += [
                (index, self._queued) for index in range(closed, timeline._bin)
            ]

    def observe(self, request: "Request", result: "AccessResult", *, measured: bool) -> None:
        """Account one processed request into the current bin's window."""
        channel = self._measured if measured else self._warmup
        point = int(result.point)
        channel.requests[point].inc()
        channel.bytes[point].inc(request.size)
        channel.response.observe(result.time_ms)
        if result.remote_hit:
            channel.intercache.inc(request.size)
        if result.false_positive:
            channel.false_positive.inc()
        if result.false_negative:
            channel.false_negative.inc()
        if result.suboptimal_positive:
            channel.suboptimal_positive.inc()
        if result.push_hit:
            channel.push_hit.inc()
        if result.timeout_fallback:
            channel.timeout_fallback.inc()
        if result.stale_hint_forward:
            channel.stale_hint_forward.inc()
        if result.fault_added_ms:
            channel.fault_ms.inc(result.fault_added_ms)

    def defer(self, rows: int) -> None:
        """``rows`` more requests were served; :meth:`settle` accounts them."""
        self._queued += rows

    def settle(
        self,
        *,
        point: np.ndarray,
        size: np.ndarray,
        time_ms: np.ndarray,
        measured: np.ndarray,
        remote_hit: np.ndarray,
        false_positive: np.ndarray,
        false_negative: np.ndarray,
        suboptimal_positive: np.ndarray,
        push_hit: np.ndarray,
        timeout_fallback: np.ndarray,
        stale_hint_forward: np.ndarray,
        fault_ms: np.ndarray | None = None,
    ) -> None:
        """:meth:`observe` for every deferred row at once, in row order.

        The arguments are columns over the deferred rows (``fault_ms``
        ``None`` reads as zeros).  Each series' running sum starts at its
        settled value and adds the rows left to right (``np.cumsum`` is
        the strict running sum), so every value -- the float sums
        included -- is the one per-request accounting would hold after
        the same rows.  Bins closed while rows were deferred take their
        request-channel values from the running sums at their position;
        the instruments take the sums after the last row.
        """
        rows = len(point)
        if rows != self._queued:
            raise RuntimeError(f"settling {rows} rows, but {self._queued} were deferred")
        for values, what in (
            (size, "counter increments"),
            (fault_ms, "counter increments"),
            (time_ms, "histogram observations"),
        ):
            if rows and values is not None and values.min() < 0:
                raise ValueError(f"{what} must be non-negative, got {values.min()}")
        width = _WindowChannel.WIDTH
        channels = (self._warmup, self._measured)
        running = np.zeros((rows + 1, 2 * width))
        running[0] = self._warmup.values() + self._measured.values()
        flags = (
            false_positive,
            false_negative,
            suboptimal_positive,
            push_hit,
            timeout_fallback,
            stale_hint_forward,
        )
        for window, (channel, rows_of) in enumerate(zip(channels, (~measured, measured))):
            at = np.flatnonzero(rows_of)
            if at.size:
                channel.steps(
                    running[1:, window * width : (window + 1) * width],
                    at,
                    point=point,
                    size=size,
                    time_ms=time_ms,
                    remote_hit=remote_hit,
                    flags=flags,
                    fault_ms=fault_ms,
                )
        running = np.cumsum(running, axis=0)
        for index, offset in self._pending_closes:
            self.timeline._patch(index, self._channels, running[offset])
        final = running[rows].tolist()
        self._warmup.assign(final[:width])
        self._measured.assign(final[width:])
        self._queued = 0
        self._pending_closes = []

    def finish(self, end_time: float) -> None:
        """Close the timeline at the trace's end (engine calls after loop)."""
        if self._queued:
            raise RuntimeError(f"{self._queued} deferred rows were never settled")
        self.timeline.finish(end_time)

    @property
    def rows(self) -> list[dict]:
        """The per-bin rows collected so far (empty before ``begin``)."""
        return self.timeline.rows if self.timeline is not None else []


# ----------------------------------------------------------------------
# layer bindings (callback-backed instruments; zero request-path cost)
# ----------------------------------------------------------------------
def _bind_objects(
    registry: MetricsRegistry,
    objects: Sequence[tuple[Mapping[str, str], object]],
    series: Sequence[tuple[str, str, str]],
    read: Callable[[object], Sequence[float]],
) -> None:
    """Register ``series`` -- ``(name, kind, help)`` -- for every
    ``(labels, obj)`` in ``objects``, valued by ``read(obj)``.

    Each instrument keeps its own callback for ``value``; a timeline
    close reads all of them through one group reader that calls
    ``read`` once per object.
    """
    if not objects:
        return
    instruments = []
    for labels, obj in objects:
        for position, (name, kind, help_text) in enumerate(series):
            register = registry.counter if kind == "counter" else registry.gauge
            instruments.append(
                register(
                    name,
                    labels,
                    help=help_text,
                    fn=lambda o=obj, p=position: float(read(o)[p]),
                )
            )
    held = tuple(obj for _labels, obj in objects)

    def read_all() -> list:
        values: list = []
        for obj in held:
            values += read(obj)
        return values

    registry.bind_reader(instruments, read_all)


#: Every data cache's series, valued by :func:`_cache_values`.
_CACHE_SERIES = (
    ("repro_cache_occupancy_bytes", "gauge", "Bytes currently cached"),
    ("repro_cache_entries", "gauge", "Objects currently cached"),
    ("repro_cache_insertions_total", "counter", "Objects stored since construction"),
    ("repro_cache_evictions_total", "counter", "Capacity evictions since construction"),
    (
        "repro_cache_invalidations_total",
        "counter",
        "Consistency invalidations since construction",
    ),
)


def _cache_values(cache) -> tuple:
    return (
        cache.occupancy_bytes,
        len(cache),
        cache.insertions,
        cache.evictions,
        cache.invalidations,
    )


#: A hint directory's series, valued by :func:`_directory_values`.
_DIRECTORY_SERIES = (
    ("repro_hint_entries", "gauge", "Objects with at least one visible hint"),
    ("repro_hint_informs_total", "counter", "Inform events (new copies announced)"),
    ("repro_hint_retracts_total", "counter", "Retract events (copies withdrawn)"),
    (
        "repro_hint_corrections_total",
        "counter",
        "Stale hints dropped after a probe found the copy gone",
    ),
    (
        "repro_hint_false_negative_lookups_total",
        "counter",
        "Lookups that missed although a remote copy existed",
    ),
    (
        "repro_hint_false_positive_probes_total",
        "counter",
        "Probes that found the advertised copy gone",
    ),
)


def _directory_values(directory) -> tuple:
    return (
        directory.visible_entries,
        directory.inform_events,
        directory.retract_events,
        directory.corrections,
        directory.false_negatives,
        directory.false_positives_recorded,
    )


#: ICP's sibling counters: (architecture attribute, name, help).
_ICP_SERIES = (
    ("sibling_queries", "repro_icp_sibling_queries_total", "ICP sibling queries issued"),
    (
        "sibling_hits",
        "repro_icp_sibling_hits_total",
        "ICP sibling queries answered by a sibling copy",
    ),
)


def bind_caches(
    registry: MetricsRegistry,
    caches: Sequence,
    *,
    arch: str,
    level: str,
) -> None:
    """Register occupancy/churn instruments for one level's data caches.

    Works for any cache satisfying the
    :class:`repro.cache.policy.ReplacementPolicy` protocol's observation
    surface: ``occupancy_bytes``/``__len__`` plus the always-on
    ``insertions``/``evictions``/``invalidations`` counters (every policy
    cache and :class:`repro.cache.ttl.TTLCache`) -- one uniform accessor,
    no per-class fallbacks.  Cache ``i`` is labelled ``node=i``.
    """
    _bind_objects(
        registry,
        [
            ({"arch": arch, "level": level, "node": str(node)}, cache)
            for node, cache in enumerate(caches)
        ],
        _CACHE_SERIES,
        _cache_values,
    )


def bind_architecture(registry: MetricsRegistry, architecture: "Architecture") -> None:
    """Introspect an architecture and register its layers' instruments.

    Covers every shipped architecture by structural convention:
    ``l1_caches``/``l2_caches`` lists and a single ``l3_cache`` become
    per-node cache instruments; a ``directory``
    (:class:`repro.hints.directory.HintDirectory`) becomes hint-count,
    propagation, staleness-correction and false-probe instruments; ICP's
    sibling counters ride along when present.
    """
    arch = architecture.name
    bind_caches(registry, getattr(architecture, "l1_caches", ()) or (), arch=arch, level="l1")
    bind_caches(registry, getattr(architecture, "l2_caches", ()) or (), arch=arch, level="l2")
    l3 = getattr(architecture, "l3_cache", None)
    if l3 is not None:
        bind_caches(registry, (l3,), arch=arch, level="l3")
    directory = getattr(architecture, "directory", None)
    if directory is not None:
        _bind_objects(
            registry, [({"arch": arch}, directory)], _DIRECTORY_SERIES, _directory_values
        )
    icp = [entry for entry in _ICP_SERIES if hasattr(architecture, entry[0])]
    if icp:
        _bind_objects(
            registry,
            [({"arch": arch}, architecture)],
            [(name, "counter", help_text) for _attr, name, help_text in icp],
            lambda a: [getattr(a, attr) for attr, _name, _help in icp],
        )


def bind_injector(
    registry: MetricsRegistry, injector: "FaultInjector", *, arch: str
) -> None:
    """Mirror a fault injector's state as gauges.

    Every node the plan ever crashes or recovers gets a ``repro_node_up``
    gauge (1 up, 0 down); the level-wide conditions (origin slowdown,
    link degradation, hint loss) become gauges too, so degradation
    windows are visible in the same timeline as the hit-rate dip they
    cause.  These gauges mirror the plan, not a partition's state, so a
    sharded merge keeps one copy of them (:data:`MIRRORED_GAUGES`).
    """
    from repro.faults.events import NodeCrash, NodeKind, NodeRecover

    targets: set[tuple[str, int]] = set()
    for event in injector.plan.events:
        if isinstance(event, (NodeCrash, NodeRecover)):
            targets.add((event.kind.value, event.node))
    targets = sorted(targets)
    instruments = [
        registry.gauge(
            "repro_node_up",
            {"arch": arch, "kind": kind, "node": str(node)},
            help="1 while the node is reachable, 0 while crashed",
            fn=lambda i=injector, k=kind, n=node: 0.0 if i.is_down(k, n) else 1.0,
        )
        for kind, node in targets
    ]
    labels = {"arch": arch}
    instruments.append(
        registry.gauge(
            "repro_fault_origin_factor",
            labels,
            help="Current origin-fetch latency multiplier",
            fn=lambda i=injector: float(i.origin_factor),
        )
    )
    instruments.append(
        registry.gauge(
            "repro_fault_latency_mult",
            labels,
            help="Current network-charge latency multiplier",
            fn=lambda i=injector: float(i.latency_mult),
        )
    )
    instruments.append(
        registry.gauge(
            "repro_fault_hint_loss_prob",
            labels,
            help="Current hint-batch loss probability",
            fn=lambda i=injector: float(i.hint_loss_prob),
        )
    )
    nodes = [(NodeKind(kind), node) for kind, node in targets]

    def read() -> list[float]:
        down = injector.down_nodes
        return [0.0 if node in down else 1.0 for node in nodes] + [
            float(injector.origin_factor),
            float(injector.latency_mult),
            float(injector.hint_loss_prob),
        ]

    registry.bind_reader(instruments, read)


# ----------------------------------------------------------------------
# warmup convergence
# ----------------------------------------------------------------------
@dataclass
class ConvergenceReport:
    """When (and whether) a run's L1 hit rate stabilized.

    ``series`` is the cumulative hit rate for ``point`` after each
    non-empty bin; ``converged_at_s`` is the end of the earliest bin from
    which every later cumulative rate stays within ``tolerance`` of the
    final rate -- i.e. the clock time after which measuring would have
    been safe.  ``converged`` is False when only the final bin qualifies
    (the rate was still moving at the end of the trace).
    """

    arch: str
    point: str
    tolerance: float
    converged: bool
    converged_at_s: float | None
    final_rate: float
    series: list[tuple[float, float]]

    def summary_line(self) -> str:
        """One human-readable line for CLI output."""
        if not self.series:
            return f"{self.arch}: no requests observed"
        if not self.converged:
            return (
                f"{self.arch}: {self.point} hit rate still moving at trace end "
                f"(final {self.final_rate:.3f})"
            )
        hours = (self.converged_at_s or 0.0) / 3600.0
        return (
            f"{self.arch}: {self.point} hit rate within {self.tolerance:.0%} of "
            f"final ({self.final_rate:.3f}) after {hours:.1f} h"
        )


def warmup_convergence(
    rows: Sequence[Mapping],
    *,
    point: str = "L1",
    tolerance: float = 0.02,
) -> ConvergenceReport:
    """Judge warmup convergence from one architecture's timeline rows.

    Uses *cumulative* hit rate at ``point`` over all windows (warmup and
    measured alike -- that is the point: the warmup bins are exactly the
    data the end-of-run scalars cannot show).  Validates the paper's
    two-day warmup by reporting when measurement would have become safe.
    """
    if tolerance <= 0:
        raise ValueError(f"tolerance must be positive, got {tolerance}")
    arch = str(rows[0].get("arch", "")) if rows else ""
    cumulative_requests = 0.0
    cumulative_point = 0.0
    series: list[tuple[float, float]] = []
    for row in rows:
        bin_requests = 0.0
        bin_point = 0.0
        for key, delta in row["counters"].items():
            if not key.startswith("repro_requests_total"):
                continue
            _name, labels = parse_metric_key(key)
            bin_requests += delta
            if labels.get("point") == point:
                bin_point += delta
        if bin_requests == 0.0:
            continue
        cumulative_requests += bin_requests
        cumulative_point += bin_point
        series.append((float(row["t_end"]), cumulative_point / cumulative_requests))
    if not series:
        return ConvergenceReport(
            arch=arch,
            point=point,
            tolerance=tolerance,
            converged=False,
            converged_at_s=None,
            final_rate=0.0,
            series=[],
        )
    final_rate = series[-1][1]
    converged_at = series[-1][0]
    for index in range(len(series) - 1, -1, -1):
        if abs(series[index][1] - final_rate) > tolerance:
            break
        converged_at = series[index][0]
    converged = len(series) > 1 and converged_at < series[-1][0]
    return ConvergenceReport(
        arch=arch,
        point=point,
        tolerance=tolerance,
        converged=converged,
        converged_at_s=converged_at if converged else None,
        final_rate=final_rate,
        series=series,
    )


#: Gauges that mirror the fault plan (:func:`bind_injector`), not the state
#: of the partition that reports them.  Every partition of a sharded run
#: replays the same plan, so a merge keeps one copy instead of summing.
MIRRORED_GAUGES = frozenset(
    {
        "repro_node_up",
        "repro_fault_origin_factor",
        "repro_fault_latency_mult",
        "repro_fault_hint_loss_prob",
    }
)


def merge_timeline_columns(parts: Sequence[TimelineColumns]) -> TimelineColumns:
    """Merge per-partition timelines of one architecture, bin by bin.

    The sharded runner gives every virtual partition its own
    :class:`RunTelemetry` over the same trace clock (same ``bin_s``, same
    ``finish`` time), so the partitions' columns are congruent: same
    architecture, bin edges and keys.  The merge sums counter *deltas*
    (they telescope, so merged bins re-sum to the merged run totals
    exactly) and sums gauge values -- cache occupancies and entry counts
    add across partitions.  The :data:`MIRRORED_GAUGES` (node up/down and
    the fault multipliers) mean the same in every partition: they are
    checked to agree and kept once, so they read what the unsharded run
    reports.

    Callers fold partitions in canonical partition order: summing floats
    in a fixed order is what keeps merged rows byte-identical for any
    shard count.  Keys come back sorted.  Raises ``ValueError`` on
    incongruent partitions or on mirrored gauges that disagree.
    """
    if not parts:
        raise ValueError("no timelines to merge")
    first = parts[0]
    mirrored = np.array(
        [key.split("{", 1)[0] in MIRRORED_GAUGES for key in first.gauge_keys],
        dtype=bool,
    )
    counters = np.zeros_like(first.counters)
    gauges = np.zeros_like(first.gauges)
    for index, part in enumerate(parts):
        for name in ("arch", "bin_s", "t_end", "counter_keys", "gauge_keys"):
            if getattr(part, name) != getattr(first, name):
                raise ValueError(f"partition {index}: {name} differs from partition 0")
        if not np.array_equal(part.gauge_since, first.gauge_since):
            raise ValueError(f"partition {index}: gauge_since differs from partition 0")
        if not np.array_equal(part.gauges[:, mirrored], first.gauges[:, mirrored]):
            raise ValueError(
                f"partition {index}: mirrored fault gauges disagree with partition 0"
            )
        counters += part.counters
        gauges += part.gauges
    gauges[:, mirrored] = first.gauges[:, mirrored]
    counter_order = sorted(range(len(first.counter_keys)), key=first.counter_keys.__getitem__)
    gauge_order = sorted(range(len(first.gauge_keys)), key=first.gauge_keys.__getitem__)
    return TimelineColumns(
        arch=first.arch,
        bin_s=first.bin_s,
        t_end=list(first.t_end),
        counter_keys=tuple(first.counter_keys[j] for j in counter_order),
        counters=counters[:, counter_order],
        gauge_keys=tuple(first.gauge_keys[j] for j in gauge_order),
        gauges=gauges[:, gauge_order],
        gauge_since=first.gauge_since[gauge_order],
    )
