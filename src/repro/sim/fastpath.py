"""Columnar batch engine: the vectorized twin of :mod:`repro.sim.engine`.

The reference engine materializes one ``Request`` tuple, one ``Journey``,
several ``Step`` tuples, and one ``AccessResult`` per trace record, then
folds each into ``SimMetrics`` a counter at a time.  At ~30-50k req/s that
object churn is the simulation's entire cost.  This module keeps the trace
columnar end-to-end: requests live as NumPy arrays (time, client, object,
size, version, cachability), classification/warmup masking/accounting are
vectorized per batch, and per-request Python survives only for the state
transitions that genuinely need it -- LRU lookups/inserts (evictions), hint
directory traffic, and the push-policy and hint-loss RNG draws.

Parity contract
---------------
A fast-engine run produces **byte-identical** :class:`SimMetrics` to the
reference engine on the same trace and a freshly built architecture:

* identical integer counters, by construction (same cache/directory method
  calls in the same order drive the same hit/miss/pathology outcomes);
* identical floats: every reference accumulation is a left-to-right
  ``total += value`` chain, which :func:`_sequential_sum` replays exactly
  via ``np.cumsum`` (``ufunc.accumulate`` is defined as the running sum,
  ``r[i] = r[i-1] + a[i]``), per-request times are slot sums ``(s0 + s1) +
  s2`` with unused slots padded by ``+0.0`` (exact identity for the finite
  non-negative costs involved), and batch cost pricing uses the cost
  models' ``*_ms_batch`` methods, which replay the scalar arithmetic
  elementwise;
* identical histograms: :meth:`LatencyHistogram.bulk_record` routes every
  distinct value through the same scalar binning formula as ``record``.

The kernels are **policy-agnostic**: every state mutation on a *bounded*
cache goes through the real ``lookup``/``insert``/``invalidate`` methods,
so a non-LRU replacement policy (:mod:`repro.cache.policy` -- LFU
frequency counters, Random victim streams) advances exactly as in the
reference loop and the parity contract holds for any per-level policy
mix.  The only method bypass -- the warm-hit raw ``_entries`` dict probe
-- is taken solely for *unbounded* caches, where no eviction can ever
happen and policy bookkeeping is therefore unobservable.

Batch state machine
-------------------
Every architecture checks the client's own L1 proxy first; they differ
only in how a miss finds a copy.  So one loop, :meth:`_Kernel.classify`,
owns the batch prologue (column gathers) and the only L1 probe: it records
each local hit inline (no call per hit) and hands each miss to the
kernel's miss hook, which resolves it and returns ``(pattern, holder,
point)``.  Spans are classified in trace order, because classification
mutates cache and directory state.  Everything after it is a pure
function of the classified rows, so classified spans wait until
``batch_size`` rows are pending (or the run ends) and are then handled
once per batch and cost model: priced in one pass (``cost_reconstruct``,
each span's rows under that span's fault snapshot), decoded into journeys
and settled into telemetry when attached, and folded into that model's
metrics (``metrics_fold``).  Classification never reads a cost model, so
one classification serves every model a run prices
(:func:`repro.sim.engine.run_simulation_costs`): N models cost N prices
and folds per batch, not N classifications.  Short spans cut by
telemetry bins or fault edges pay none of those fixed costs per span.
Telemetry bins that close while rows are pending get their
request-channel values from the batch's running sums
(:meth:`repro.obs.telemetry.RunTelemetry.settle`).  Pricing, flags,
result points, the fold's kind table and the journey decode are all
derived from the kernel's ``STEPS`` table, so a journey shape is stated
once.

Fault windows
-------------
Fault plans run on the kernels too.  The driver splits the trace into
spans at batch boundaries, telemetry bin edges, *and fault-event edges*
(``searchsorted`` over the plan's event times), so the injector's state
is constant within a span.  ``span_begin`` takes one :class:`_Faults`
snapshot of it per span -- the down L1/L2/L3/meta nodes, the latency and
origin multipliers, the hint-loss probability and the drift skew -- and
the kernels read that snapshot, never the injector.  With a plan
attached every request takes the architecture's ``_process_faulted``
path, and each kernel's table and miss hook carry that path's degraded
patterns: a dead own proxy (timeout, then origin; split off before the
probe loop, with no L1 lookup), a dead parent (timeout, then origin),
ICP's dead siblings (the query round waits out the timeout and scans the
live siblings only), a dead directory, and a dead holder named by stale
metadata (a stale timeout).  Pricing applies each span's snapshot
multipliers to that span's rows, on every network step (``hint_lookup``
excepted, ``origin_fetch`` also by the origin factor), and records each
step's surcharge, which the fold and the decoders carry into the fault
ledger.  A quiescent span is just the snapshot with no down node and unit
multipliers, so there is one mode.  Client hints and message-level hints
have no degraded path: under a plan they run their healthy path, as the
reference does.

Audit hooks remain inherently per-request (checkpoints walk live state
between requests), so audited runs still dispatch to the reference loop.

Adding an architecture = writing one ``_Kernel`` subclass: a ``STEPS``
table (pattern -> result point, flags, and journey steps with their price
rule and target) and a ``_miss_hook`` that builds the per-miss closure
returning each miss's ``(pattern, holder, point)``.  A hint-style variant
is instead one more ``HintKernel.VARIANTS`` entry: a hook and its table.
The driver (batching, warmup masking, pricing, metrics folding, telemetry
bin splitting, fault-span splitting, journey decode) is
architecture-independent.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import TYPE_CHECKING, NamedTuple, Sequence

import numpy as np

from repro.cache.lru import LookupResult
from repro.faults.events import NodeKind
from repro.netmodel.model import AccessPoint
from repro.obs import profiling
from repro.obs.journey import Journey, Step, StepKind
from repro.sim.metrics import SimMetrics, StepAggregate

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.events import FaultPlan
    from repro.faults.injector import FaultInjector
    from repro.hierarchy.base import Architecture
    from repro.netmodel.model import CostModel
    from repro.obs.sink import JourneySink
    from repro.obs.telemetry import RunTelemetry
    from repro.traces.records import Trace

#: Default batch size; parity is batch-size-independent (tests sweep it).
DEFAULT_BATCH_SIZE = 4096

#: Result-flag bits (column ``flags``), decoded into SimMetrics counters
#: and telemetry observations.
FLAG_REMOTE_HIT = 1
FLAG_FALSE_POSITIVE = 2
FLAG_FALSE_NEGATIVE = 4
FLAG_SUBOPTIMAL = 8
FLAG_PUSH_HIT = 16
FLAG_STALE_FORWARD = 32
#: Set by any ``timeout`` step (derived from the table, like the journey's
#: ``timeout_fallback``); the journey decode needs no mark for it.
FLAG_TIMEOUT = 64

#: Journey marks implied by the flag bits (the journey decode sets them).
_MARKS = (
    (FLAG_FALSE_POSITIVE, Journey.mark_false_positive),
    (FLAG_FALSE_NEGATIVE, Journey.mark_false_negative),
    (FLAG_SUBOPTIMAL, Journey.mark_suboptimal),
    (FLAG_PUSH_HIT, Journey.mark_push_hit),
    (FLAG_STALE_FORWARD, Journey.mark_stale_forward),
)
_MARK_BITS = sum(bit for bit, _ in _MARKS)

#: Price rules: the cost-model method that prices a step.
HIER = "hierarchical_ms_batch"
VIA = "via_l1_ms_batch"
DIRECT = "direct_ms_batch"
PROBE = "probe_ms"
HINT = "hint_lookup_ms"
#: Not a cost-model method: the plan's timeout, all of it fault time.
WAIT = "timeout_ms"

#: Point placeholder: the row's own point column (a holder's distance
#: class, or the charged point under ideal push).
ROW = 0
L1, L2, L3, SERVER = AccessPoint
#: AccessPoint by int value (the decode's point column).
_POINTS = (None, L1, L2, L3, SERVER)
#: The miss paths compare against this alias: enum attribute access
#: costs a class lookup per use.
_HIT = LookupResult.HIT
#: Pattern 0 of every degraded kernel: the client's own proxy is down, so
#: the request waits out the timeout and goes to the origin (no L1 probe).
DOWN = 0


class _Faults(NamedTuple):
    """One span's fault state: the injector snapshot the kernels read.

    Spans split at every fault-event edge, so the injector's state is
    constant within a span and one snapshot per span replaces the
    reference's per-request ``is_down`` queries.  ``active`` is the
    injector's ``faults_active``; the default instance is a quiescent
    span (no down node, unit multipliers).
    """

    active: bool = False
    l1: frozenset = frozenset()
    l2: frozenset = frozenset()
    #: Whether L3 node 0, the root and only L3 node, is down.
    l3: bool = False
    meta: frozenset = frozenset()
    latency_mult: float = 1.0
    origin_factor: float = 1.0
    loss: float = 0.0
    skew: float = 0.0

    @classmethod
    def of(cls, injector: "FaultInjector | None") -> "_Faults":
        if injector is None or not injector.faults_active:
            return _QUIESCENT
        down: dict[NodeKind, set[int]] = {kind: set() for kind in NodeKind}
        for kind, node in injector.down_nodes:
            down[kind].add(node)
        return cls(
            True,
            frozenset(down[NodeKind.L1]),
            frozenset(down[NodeKind.L2]),
            0 in down[NodeKind.L3],
            frozenset(down[NodeKind.META]),
            injector.latency_mult,
            injector.origin_factor,
            injector.hint_loss_prob,
            injector.hint_delay_skew_s,
        )


_QUIESCENT = _Faults()


class _Step(NamedTuple):
    """One journey step of a pattern: its kind, price rule and target.

    ``point`` is an :class:`AccessPoint`, :data:`ROW`, ``None`` (a
    scalar rule that takes no point), or the name of an architecture
    attribute holding the point.  ``target`` is formatted with the row's
    aux node as ``{0}`` and that node's L2 group as ``{1}``.
    """

    kind: StepKind
    price: str
    point: object
    target: str = ""
    wasted: bool = False


_LOCAL = _Step(StepKind.LOCAL_LOOKUP, VIA, L1, "l1:{0}")
_HINT = _Step(StepKind.HINT_LOOKUP, HINT, None)
_HINTED = _Step(StepKind.HINT_LOOKUP, HINT, None, "l1:{0}")
_TRANSFER = _Step(StepKind.TRANSFER, VIA, ROW, "l1:{0}")
_WASTED = _Step(StepKind.PEER_PROBE, PROBE, ROW, "l1:{0}", True)
_ORIGIN = _Step(StepKind.ORIGIN_FETCH, VIA, SERVER, "origin")
_DIRECT_ORIGIN = _ORIGIN._replace(price=DIRECT)
#: A dead proxy's timeout (the requester's own, or a holder's); the stale
#: variant is a wasted forward that metadata sent to the corpse.
_TIMEOUT = _Step(StepKind.TIMEOUT, WAIT, None, "l1:{0}")
_STALE_TIMEOUT = _TIMEOUT._replace(wasted=True)


def _sequential_sum(initial: float, values: np.ndarray) -> float:
    """``((initial + v0) + v1) + ...`` bit-for-bit, without a Python loop.

    ``np.cumsum`` is ``np.add.accumulate``, whose contract is the strict
    running sum -- the same left-to-right IEEE additions the reference
    engine's ``total += value`` chain performs (pinned by a unit test).
    """
    buffer = np.empty(len(values) + 1, dtype=np.float64)
    buffer[0] = initial
    buffer[1:] = values
    return float(np.cumsum(buffer)[-1])


def _step_cost(cost, method: str, point, sizes: np.ndarray):
    """One step's cost for ``sizes``: a batch method or a scalar broadcast."""
    fn = getattr(cost, method)
    if method == HINT:
        return fn()
    if method == PROBE:
        return fn(point)
    return fn(point, sizes)


def _slot_sum(slots: list[np.ndarray]) -> np.ndarray:
    """Per-row left-to-right sum of the slots, unused slots padded by 0.0.

    Elementwise-identical to the journey's ``total += step`` chain: the
    chain starts at ``0.0`` and ``0.0 + x == x + 0.0 == x`` for the finite
    non-negative costs involved.
    """
    total = slots[0]
    for values in slots[1:]:
        total = total + values
    return total


class _BatchResult:
    """Column store for one priced batch (small ints + slot costs).

    ``fault_slots`` (each step's fault surcharge, journey order) and
    ``active`` (rows of active fault windows) are ``None`` when no row of
    the batch lies in an active fault window, where every surcharge is
    0.0.
    """

    __slots__ = (
        "idx", "pattern", "point", "aux", "flags", "slot_costs", "fault_slots",
        "active", "time_ms", "fault_ms",
    )

    def __init__(self, idx, pattern, point, aux, flags, slot_costs, fault_slots, active):
        self.idx = idx  # trace row per batch row
        self.pattern = pattern  # kernel-defined path shape per row
        self.point = point  # AccessPoint int per row
        self.aux = aux  # journey target node (requester or holder)
        self.flags = flags  # FLAG_* bitmask per row
        self.slot_costs = slot_costs  # list of float64 arrays, journey order
        self.fault_slots = fault_slots
        self.active = active
        self.time_ms = _slot_sum(slot_costs)
        self.fault_ms = None if fault_slots is None else _slot_sum(fault_slots)


class _Pending:
    """Classified spans waiting for their batch's one price and fold.

    Rows are numbered within the batch, in trace order; ``states`` holds
    ``[fault snapshot, rows]`` runs, so pricing applies each span's
    multipliers to its own rows.
    """

    __slots__ = ("idx", "misses", "found", "pushed", "down", "states", "rows")

    def __init__(self) -> None:
        self.idx: list[np.ndarray] = []
        self.misses: list[int] = []
        self.found: list[int] = []
        self.pushed: list[int] = []
        self.down: list[np.ndarray] = []
        self.states: list[list] = []
        self.rows = 0

    def add(self, idx: np.ndarray, classified, state: _Faults) -> None:
        """Queue one span's :meth:`_Kernel.classify` output."""
        misses, found, pushed, down = classified
        base = self.rows
        if base:
            misses = [row + base for row in misses]
            pushed = [row + base for row in pushed]
        self.idx.append(idx)
        self.misses += misses
        self.found += found
        self.pushed += pushed
        if down is not None:
            self.down.append(down + base)
        if self.states and self.states[-1][0] == state:
            self.states[-1][1] += len(idx)
        else:
            self.states.append([state, len(idx)])
        self.rows = base + len(idx)


class _Kernel:
    """One architecture's batchable hot path.

    Subclasses declare ``STEPS`` and write ``_miss_hook``; this class
    owns the L1 probe and derives everything else from the table.
    """

    #: pattern -> (result point, FLAG_* bits, journey steps).  Pattern 1
    #: is the local hit the probe records, pattern DOWN (degraded kernels
    #: only) the dead own proxy; result point ROW takes the row's emitted
    #: point.  ``FLAG_TIMEOUT`` and a stale timeout's
    #: ``FLAG_STALE_FORWARD`` are derived from the steps.
    STEPS: dict = {}

    #: Whether the probe stamps ``arch._now`` before a real L1 lookup (the
    #: architectures whose eviction callbacks read it).
    STAMP = False

    def __init__(self, architecture: "Architecture", trace: "Trace") -> None:
        self.arch = architecture
        self.columns = columns = trace.columns()
        # With a fault plan bound, *every* request takes the architecture's
        # ``_process_faulted`` path when it has one; ``degrades`` says the
        # kernel replays it (tables and hooks read the span's ``state``
        # snapshot; pricing, each pending span's own).  Client and
        # message-level hints have none.
        injector = architecture.faults
        self.faulted = injector is not None
        self.degrades = self.faulted and hasattr(architecture, "_process_faulted")
        self.state = _QUIESCENT
        self._dead_probe = None if injector is None else injector.note_dead_probe
        self._timeout_ms = None if injector is None else injector.timeout_ms
        topology = architecture.topology
        self._l1_all = topology.l1_of_clients(columns.client)
        self._dist_rows = topology.distance_matrix().tolist()
        self._per = topology.l1_per_l2
        # Unbounded caches never evict, so replacement bookkeeping (LRU
        # recency order, LFU frequencies, Random's key table) is
        # unobservable: a pure HIT's only state effect (``_touch``) can be
        # skipped and the lookup becomes one dict probe.  STALE rows still
        # take the real lookup, MISS rows the real inserts, and *bounded*
        # caches take the real calls for every row -- that is what keeps
        # the kernels policy-agnostic (module docstring).  ``_entries``
        # maps each key to its stored version (an int).  (Crash events
        # empty ``_entries`` in place, so the dict references stay valid
        # across fault windows.)
        self._l1_entries = [
            cache._entries if cache.capacity_bytes is None else None
            for cache in architecture.l1_caches
        ]
        # Push variants consume push marks on local hits; ``_process_faulted``
        # ignores push policies, so faulted runs do not.
        self._marks = (
            not self.faulted and getattr(architecture, "push_policy", None) is not None
        )
        # Everything below is derived from STEPS: per-pattern steps with
        # attribute points resolved, lookup tables for result points and
        # flags, and kind -> {pattern: [(slot, wasted)]} for the fold.
        self.steps = {}
        self.kinds: dict[str, dict[int, list[tuple[int, bool]]]] = {}
        self._point_lut = np.zeros(max(self.STEPS) + 1, dtype=np.int64)
        self._flag_lut = np.zeros_like(self._point_lut)
        for pattern, (point, flags, steps) in self.STEPS.items():
            for step in steps:
                if step.kind is StepKind.TIMEOUT:
                    flags |= FLAG_TIMEOUT | (FLAG_STALE_FORWARD if step.wasted else 0)
            self._point_lut[pattern] = point
            self._flag_lut[pattern] = flags
            self.steps[pattern] = [
                step._replace(point=getattr(architecture, step.point))
                if isinstance(step.point, str)
                else step
                for step in steps
            ]
            for slot, step in enumerate(steps):
                by_pattern = self.kinds.setdefault(step.kind.value, {})
                by_pattern.setdefault(pattern, []).append((slot, step.wasted))
        self._width = max(len(steps) for steps in self.steps.values())
        self._miss = self._miss_hook()

    def span_begin(self, state: _Faults) -> None:
        """Adopt the span's fault snapshot; rebuild the hook on a change.

        Hooks bind the snapshot's fields when built, so a quiescent or
        plan-free span pays no per-row fault check beyond an empty-set
        test.
        """
        if state != self.state:
            self.state = state
            self._miss = self._miss_hook()

    def classify(self, idx: np.ndarray):
        """The batch prologue and the only L1 probe.

        Rows whose own proxy is down (degraded kernels only) are split off
        first, vectorized, with no L1 lookup.  Local hits stay inside this
        loop (recorded as the pattern-1 default, plus a push-mark check
        for the push variants) and touch only the object, version and
        proxy columns; each miss goes to the kernel's ``_miss`` hook as
        ``(t, oid, version, size, l1, cache, stale)`` -- ``stale`` whether
        the L1 lookup invalidated an old copy -- which returns its ``(pattern, holder, point)``.  Returns
        ``(misses, found, pushed, down)``: the batch rows that missed,
        their triples flattened, the local hits that consumed a push mark,
        and the dead-proxy rows (an array, or ``None``).
        """
        columns = self.columns
        arch = self.arch
        caches = arch.l1_caches
        l1_entries = self._l1_entries
        hit = LookupResult.HIT
        miss = LookupResult.MISS
        stale = LookupResult.STALE
        stamp = self.STAMP
        resolve = self._miss
        times = columns.time[idx].tolist()
        sizes = columns.size[idx].tolist()
        rows, probed, proxies = range(len(idx)), idx, self._l1_all[idx]
        down = None
        dead = self.state.l1 if self.degrades else None
        if dead:
            on_dead = np.isin(proxies, list(dead))
            if on_dead.any():
                down = np.flatnonzero(on_dead)
                arch.faults.stats.dead_probes += len(down)
                live = np.flatnonzero(~on_dead)
                rows, probed, proxies = live.tolist(), idx[live], proxies[live]
        misses: list[int] = []
        found: list[int] = []
        pushed: list[int] = []
        emit = found.extend
        marks = self._marks
        if marks:
            # Local hits are the steady-state bulk, so the consume-mark
            # check is inlined: one dict pop replaces the method call, and
            # the stats/peek work only runs when a mark actually existed.
            # The dict itself stays live (eviction pops from the same
            # object).
            pending_pop = arch._pending_push.pop
            push_stats = arch.push_stats
            peeks = [cache.peek for cache in caches]
        for row, oid, version, l1i in zip(
            rows,
            columns.object[probed].tolist(),
            columns.version[probed].tolist(),
            proxies.tolist(),
        ):
            entries = l1_entries[l1i]
            if (
                entries is None
                or (stored := entries.get(oid)) is None
                or stored < version
            ):
                if stamp:
                    arch._now = times[row]
                cache = caches[l1i]
                # Bounded caches take the real lookup; an unbounded one only
                # to invalidate a stale copy (an absent key is a plain miss).
                outcome = (
                    cache.lookup(oid, version)
                    if entries is None or stored is not None
                    else miss
                )
                if outcome is not hit:
                    misses.append(row)
                    emit(resolve(
                        times[row], oid, version, sizes[row], l1i, cache,
                        outcome is stale,
                    ))
                    continue
            if marks:
                pushed_version = pending_pop((l1i, oid), None)
                if pushed_version is not None and pushed_version >= version:
                    push_stats.used_count += 1
                    peeked = peeks[l1i](oid)
                    push_stats.used_bytes += peeked.size if peeked else 0
                    pushed.append(row)
        return misses, found, pushed, down

    def _miss_hook(self):
        """Build this kernel's per-miss hook (a closure over its state)."""
        raise NotImplementedError

    def l1_hits(self, rows: int, classified) -> int:
        """Rows of one classified span whose result point is L1."""
        misses, found, _pushed, down = classified
        hits = rows - len(misses) - (0 if down is None else len(down))
        if found:
            resolved = np.array(found, dtype=np.int64).reshape(-1, 3)
            points = self._point_lut[resolved[:, 0]]
            points = np.where(points == ROW, resolved[:, 2], points)
            hits += int((points == int(L1)).sum())
        return hits

    def price(self, pending: _Pending, cost: "CostModel") -> _BatchResult:
        """Scatter the misses over the all-local-hit default; price slots.

        ``cost`` prices the steps: classification never reads a cost
        model, so one classified batch prices under any number of them.
        One pass over every pending span, each row under its own span's
        fault snapshot: in an active span of a degraded kernel every
        network step costs ``base * latency_mult`` (``origin_fetch`` also
        times the origin factor), ``hint_lookup`` stays undegraded, and a
        timeout costs the plan's timeout.  Each step's surcharge lands in
        ``fault_slots``.
        """
        idx = pending.idx[0] if len(pending.idx) == 1 else np.concatenate(pending.idx)
        n = len(idx)
        pattern = np.ones(n, dtype=np.int64)
        aux = self._l1_all[idx]
        row_point = np.ones(n, dtype=np.int64)
        if pending.misses:
            rows = np.array(pending.misses, dtype=np.int64)
            pattern[rows], aux[rows], row_point[rows] = (
                np.array(pending.found, dtype=np.int64).reshape(-1, 3).T
            )
        for down in pending.down:
            pattern[down] = DOWN
        flags = self._flag_lut[pattern]
        if pending.pushed:
            flags[np.array(pending.pushed, dtype=np.int64)] |= FLAG_PUSH_HIT
        point = self._point_lut[pattern]
        point = np.where(point == ROW, row_point, point)
        sizes = self.columns.size[idx]
        states = [state for state, _ in pending.states]
        runs = [rows for _, rows in pending.states]
        active = None
        if any(state.active for state in states):
            active = np.repeat([state.active for state in states], runs)
        scaled = self.degrades and any(
            state.latency_mult != 1.0 or state.origin_factor != 1.0 for state in states
        )
        if scaled:
            mult = np.repeat([state.latency_mult for state in states], runs)
            origin = np.repeat([state.origin_factor for state in states], runs)
        slot_costs = [np.zeros(n, dtype=np.float64) for _ in range(self._width)]
        fault_slots = (
            [np.zeros(n, dtype=np.float64) for _ in range(self._width)]
            if active is not None
            else None
        )
        for p, count in enumerate(np.bincount(pattern).tolist()):
            if not count:
                continue
            # An all-hit batch (the warm steady state) needs no row mask.
            rows = slice(None) if count == n else pattern == p
            for slot, step in enumerate(self.steps[p]):
                if step.price == WAIT:
                    slot_costs[slot][rows] = fault_slots[slot][rows] = self._timeout_ms
                    continue
                if step.point != ROW:
                    base = _step_cost(cost, step.price, step.point, sizes[rows])
                else:
                    at = row_point[rows]
                    at_sizes = sizes[rows]
                    base = np.empty(count, dtype=np.float64)
                    for value in np.flatnonzero(np.bincount(at)).tolist():
                        sel = at == value
                        base[sel] = _step_cost(
                            cost, step.price, AccessPoint(value), at_sizes[sel]
                        )
                if scaled and step.kind is not StepKind.HINT_LOOKUP:
                    # A quiescent span's rows multiply by 1.0: exact.
                    charged = base * mult[rows]
                    if step.kind is StepKind.ORIGIN_FETCH:
                        charged = charged * origin[rows]
                    fault_slots[slot][rows] = charged - base
                    base = charged
                slot_costs[slot][rows] = base
        return _BatchResult(idx, pattern, point, aux, flags, slot_costs, fault_slots, active)

    def journeys(self, batch: _BatchResult, rows: list[int]):
        """Decode ``rows`` into the reference's journeys, step for step."""
        patterns = batch.pattern.tolist()
        points = batch.point.tolist()
        aux_col = batch.aux.tolist()
        flags_col = batch.flags.tolist()
        slot_costs = [costs.tolist() for costs in batch.slot_costs]
        slot_faults = (
            [faults.tolist() for faults in batch.fault_slots]
            if batch.fault_slots is not None
            else [[0.0] * len(patterns)] * self._width
        )
        per = self._per
        for row in rows:
            aux = aux_col[row]
            flags = flags_col[row]
            journey = Journey()
            journey.steps = [
                Step(
                    step.kind,
                    costs[row],
                    step.target.format(aux, aux // per),
                    faults[row],
                    step.wasted,
                )
                for step, costs, faults in zip(
                    self.steps[patterns[row]], slot_costs, slot_faults
                )
            ]
            if flags & _MARK_BITS:
                for bit, mark in _MARKS:
                    if flags & bit:
                        mark(journey)
            point = _POINTS[points[row]]
            yield journey.result(
                point,
                hit=point is not SERVER,
                remote_hit=bool(flags & FLAG_REMOTE_HIT),
            )


_HIER_ORIGIN = _Step(StepKind.ORIGIN_FETCH, HIER, SERVER, "origin")


def _prefixed(prefix: tuple, table: dict, offset: int = 0) -> dict:
    """``table`` with ``prefix`` steps before every journey, ids + ``offset``."""
    return {
        pattern + offset: (point, flags, (*prefix, *steps))
        for pattern, (point, flags, steps) in table.items()
    }


class HierarchyKernel(_Kernel):
    """Vectorized path of :class:`DataHierarchy`.

    A local miss climbs L2 -> L3 -> origin and copies back down.  Under a
    plan, ``_process_faulted`` adds the dead-parent fallbacks: a dead L2
    or L3 costs a timeout, then the origin, with the copies the walk
    already passed inserted below it.  In a quiescent span every degraded
    charge is the identity, so one miss path serves both modes.
    """

    STEPS = {
        DOWN: (SERVER, 0, (_TIMEOUT, _HIER_ORIGIN)),
        1: (L1, 0, (_Step(StepKind.LOCAL_LOOKUP, HIER, L1, "l1:{0}"),)),
        2: (L2, FLAG_REMOTE_HIT, (_Step(StepKind.LEVEL_TRAVERSAL, HIER, L2, "l2:{1}"),)),
        3: (L3, FLAG_REMOTE_HIT, (_Step(StepKind.LEVEL_TRAVERSAL, HIER, L3, "l3"),)),
        4: (SERVER, 0, (_HIER_ORIGIN,)),
        # Dead L2, dead L3: timeout at the dead level, then the origin.
        5: (SERVER, 0, (_TIMEOUT._replace(target="l2:{1}"), _HIER_ORIGIN)),
        6: (SERVER, 0, (_TIMEOUT._replace(target="l3"), _HIER_ORIGIN)),
    }

    def _miss_hook(self):
        arch = self.arch
        l2_caches, l3, per = arch.l2_caches, arch.l3_cache, self._per
        dead_l2, dead_l3 = self.state.l2, self.state.l3
        dead_probe = self._dead_probe

        def climb(t, oid, version, size, l1i, l1, stale):
            """Walk L2 -> L3 -> origin; the pattern is the level reached."""
            group = l1i // per
            if dead_l2 and group in dead_l2:
                dead_probe()
                l1.insert(oid, size, version)
                return 5, l1i, 0
            l2 = l2_caches[group]
            if l2.lookup(oid, version) is _HIT:
                l1.insert(oid, size, version)
                return 2, l1i, 0
            if dead_l3:
                dead_probe()
                l2.insert(oid, size, version)
                l1.insert(oid, size, version)
                return 6, l1i, 0
            if l3.lookup(oid, version) is _HIT:
                l2.insert(oid, size, version)
                l1.insert(oid, size, version)
                return 3, l1i, 0
            l3.insert(oid, size, version)
            l2.insert(oid, size, version)
            l1.insert(oid, size, version)
            return 4, l1i, 0

        return climb


#: ICP's pattern offset for a query round a dead sibling stalled.
_WAITED = 6


class IcpKernel(HierarchyKernel):
    """Vectorized path of :class:`IcpHierarchy` (sibling-query fan-out).

    Every local miss pays the sibling query round trip (slot 0), then
    resolves at the first sibling holding a current copy, or climbs the
    hierarchy (dead parents included).  Under a plan a dead sibling
    stalls the round until the timeout (a ``siblings`` timeout after the
    query, pattern + ``_WAITED``) and the scan covers live siblings only.
    """

    _AFTER_QUERY = {
        2: (L2, FLAG_REMOTE_HIT, (_Step(StepKind.TRANSFER, VIA, L2, "l1:{0}"),)),
        **{level + 1: HierarchyKernel.STEPS[level] for level in range(2, 7)},
    }
    _QUERY = _Step(StepKind.PEER_PROBE, PROBE, L2, "siblings")
    STEPS = {
        DOWN: HierarchyKernel.STEPS[DOWN],
        1: HierarchyKernel.STEPS[1],
        **_prefixed((_QUERY,), _AFTER_QUERY),
        **_prefixed((_QUERY, _TIMEOUT._replace(target="siblings")), _AFTER_QUERY, _WAITED),
    }

    def __init__(self, architecture, trace) -> None:
        topology = architecture.topology
        self._siblings = [topology.siblings_of(l1) for l1 in range(topology.n_l1)]
        super().__init__(architecture, trace)

    def _miss_hook(self):
        arch = self.arch
        caches = arch.l1_caches
        siblings = self._siblings
        dead = self.state.l1
        stalled = None
        if dead:
            stalled = [any(s in dead for s in group) for group in siblings]
            siblings = [[s for s in group if s not in dead] for group in siblings]
        dead_probe = self._dead_probe
        climb = super()._miss_hook()

        def miss(t, oid, version, size, l1i, l1, stale):
            arch.sibling_queries += 1
            waited = 0
            if stalled is not None and stalled[l1i]:
                dead_probe()
                waited = _WAITED
            for sibling in siblings[l1i]:
                if caches[sibling].lookup(oid, version) is _HIT:
                    arch.sibling_hits += 1
                    l1.insert(oid, size, version)
                    return 2 + waited, sibling, 0
            level, _, _ = climb(t, oid, version, size, l1i, l1, stale)
            return level + 1 + waited, l1i, 0

        return miss


class DirectoryKernel(_Kernel):
    """Vectorized path of :class:`CentralizedDirectoryArchitecture`.

    Healthy mode filters advertised holders by ground-truth freshness (the
    directory is exact), so a forwarded fetch always hits.  Faulted mode
    replays ``_process_faulted``: the freshness premise is void (crashed
    proxies died without visible retractions), so the nearest *visible*
    holder is trusted.  A live holder missing the copy produces the
    stale-forward pattern -- probe wasted, entry dropped, origin fetch; a
    dead one a stale timeout and the same drop.  A dead directory costs
    every local miss a timeout, then the origin, with a local insert the
    directory never hears about.  Pure local hits on unbounded caches skip
    promotion and the ``_now`` stamp: the directory's zero propagation
    delay makes the retraction timestamp unobservable.
    """

    STAMP = True
    _QUERY = _Step(StepKind.PEER_PROBE, PROBE, "directory_point", "directory")
    STEPS = {
        DOWN: (SERVER, 0, (_TIMEOUT, _ORIGIN)),
        1: (L1, 0, (_LOCAL,)),
        2: (ROW, FLAG_REMOTE_HIT, (_QUERY, _TRANSFER)),
        3: (SERVER, 0, (_QUERY, _ORIGIN)),
        4: (SERVER, FLAG_STALE_FORWARD, (_QUERY, _WASTED, _ORIGIN)),
        # Dead directory; dead holder.
        5: (SERVER, 0, (_TIMEOUT._replace(target="directory"), _ORIGIN)),
        6: (SERVER, 0, (_QUERY, _STALE_TIMEOUT, _ORIGIN)),
    }

    def _miss_hook(self):
        arch = self.arch
        caches = arch.l1_caches
        directory = arch.directory
        truth = directory._truth
        dist_rows = self._dist_rows
        faulted = self.faulted
        dead = self.state.l1
        directory_down = arch.DIRECTORY_META_NODE in self.state.meta
        dead_probe = self._dead_probe

        def miss(t, oid, version, size, l1i, cache, stale):
            if directory_down:
                dead_probe()
                cache.insert(oid, size, version)
                return 5, l1i, 0
            holders = directory.find(t, oid, l1i).holders
            if holders and not faulted:
                truth_map = truth.get(oid, {})
                holders = [h for h in holders if truth_map.get(h, -1) >= version]
            pattern, holder, point = 3, -1, 0
            if holders:
                drow = dist_rows[l1i]
                holder = min(holders, key=lambda h: (drow[h], h))
                point = drow[holder]
                # Healthy holders are fresh, so the lookup always hits (and
                # refreshes the peer's LRU); faulted ones may be dead or
                # emptied by a crash.
                if dead and holder in dead:
                    dead_probe()
                    directory.drop_visible(oid, holder)
                    pattern = 6
                elif caches[holder].lookup(oid, version) is _HIT:
                    pattern = 2
                else:
                    directory.drop_visible(oid, holder)
                    pattern = 4
            cache.insert(oid, size, version)
            directory.inform(t, oid, l1i, version)
            return pattern, holder, point

        return miss


#: Hint-family pattern ids (pattern 1 is the local hit).
REMOTE, MISS, FALSE_POS, FALSE_NEG, SUBOPTIMAL, FALSE_POS_AT, DEAD_HOLDER = range(2, 9)


class HintKernel(_Kernel):
    """Vectorized path of the hint family.

    Covers :class:`HintHierarchy` (plain, push policies, and the
    ideal-push bound), :class:`ClientHintHierarchy` and
    :class:`MessageLevelHintHierarchy`.  The variants share the probe
    loop, the healthy and faulted modes share it too, and each variant
    differs only by its per-miss hook and table (``VARIANTS``).  Pure
    local hits on unbounded caches skip the LRU promotion and the
    ``arch._now`` stamp (which only eviction retractions read).
    """

    STAMP = True
    VARIANTS = {
        "HintHierarchy": ("_hint_miss", {
            DOWN: (SERVER, 0, (_TIMEOUT, _ORIGIN)),
            1: (L1, 0, (_LOCAL,)),
            REMOTE: (ROW, FLAG_REMOTE_HIT, (_HINTED, _TRANSFER)),
            SUBOPTIMAL: (ROW, FLAG_REMOTE_HIT | FLAG_SUBOPTIMAL, (_HINTED, _TRANSFER)),
            MISS: (SERVER, 0, (_HINT, _ORIGIN)),
            FALSE_NEG: (SERVER, FLAG_FALSE_NEGATIVE, (_HINT, _ORIGIN)),
            FALSE_POS: (SERVER, FLAG_FALSE_POSITIVE, (_HINT, _WASTED, _ORIGIN)),
            # ``_process_faulted`` stamps the probed holder on the lookup.
            FALSE_POS_AT: (SERVER, FLAG_FALSE_POSITIVE, (_HINTED, _WASTED, _ORIGIN)),
            DEAD_HOLDER: (SERVER, FLAG_FALSE_POSITIVE, (_HINTED, _STALE_TIMEOUT, _ORIGIN)),
        }),
        "ClientHintHierarchy": ("_client_miss", {
            1: (L1, 0, (_LOCAL._replace(price=DIRECT),)),
            REMOTE: (ROW, FLAG_REMOTE_HIT, (_TRANSFER._replace(price=DIRECT),)),
            MISS: (SERVER, 0, (_DIRECT_ORIGIN,)),
            FALSE_NEG: (SERVER, FLAG_FALSE_NEGATIVE, (_DIRECT_ORIGIN,)),
            FALSE_POS: (SERVER, FLAG_FALSE_POSITIVE, (_WASTED, _DIRECT_ORIGIN)),
        }),
        "MessageLevelHintHierarchy": ("_message_miss", {
            1: (L1, 0, (_LOCAL,)),
            REMOTE: (ROW, FLAG_REMOTE_HIT, (_HINTED, _TRANSFER)),
            MISS: (SERVER, 0, (_ORIGIN,)),
            FALSE_NEG: (SERVER, FLAG_FALSE_NEGATIVE, (_ORIGIN,)),
            FALSE_POS: (SERVER, FLAG_FALSE_POSITIVE, (_WASTED, _ORIGIN)),
        }),
    }

    def __init__(self, architecture, trace) -> None:
        self._hook, self.STEPS = self.VARIANTS[type(architecture).__name__]
        super().__init__(architecture, trace)

    def _miss_hook(self):
        return getattr(self, self._hook)()

    def span_begin(self, state: _Faults) -> None:
        super().span_begin(state)
        if self.degrades:
            # StaleHintDrift, per ``_process_faulted``: the reference
            # re-assigns the skewed delay per request, and the skew is
            # constant within a span.
            arch = self.arch
            arch.directory.propagation_delay_s = arch._base_hint_delay_s + state.skew

    def _hint_miss(self):
        """HintHierarchy: directory hint, nearest-holder probe, push hooks.

        The hook calls exactly the mutating operations the reference
        calls, in the same order: directory find, nearest-holder probe
        (a dead holder is a stale timeout: dead probe, dropped hint,
        false positive), false-positive recording, push-stats accounting
        (healthy only), demand store + inform (skipped by ideal-push
        remote hits), then the push policy's target ids, which the
        architecture's own ``_apply_pushes`` fills with the missed row's
        object.  Under a lossy plan or a dead metadata node the
        inform is ``announce``, which draws the loss once per store, after
        the insert, and hides the hint when dropped or relayed by a dead
        metadata node.
        """
        arch = self.arch
        caches = arch.l1_caches
        directory = arch.directory
        find, inform, truth = directory.find, directory.inform, directory._truth
        push_stats = arch.push_stats
        apply_pushes = arch._apply_pushes
        dist_rows = self._dist_rows
        faulted = self.faulted
        # ``_process_faulted`` ignores push policies and ideal accounting.
        policy = None if faulted else arch.push_policy
        ideal = not faulted and arch.charge_remote_as_l1
        state = self.state
        dead, dead_meta, lossy = state.l1, state.meta, state.loss > 0.0
        dead_probe = self._dead_probe
        if lossy or dead_meta:
            dropped = arch.faults.hint_update_dropped
            per = self._per

            def announce(t, oid, node, version):
                visible = not (lossy and dropped()) and node // per not in dead_meta
                inform(t, oid, node, version, visible=visible)
        else:
            announce = inform

        def miss(t, oid, version, size, l1i, cache, stale):
            lookup = find(t, oid, l1i)
            if policy is not None:
                # Snapshot stale holders before any probe (the reference's
                # "recently invalidated" update-push candidate list).
                stale_holders = {
                    node: held
                    for node, held in truth.get(oid, {}).items()
                    if held < version and node != l1i
                }
            holders = lookup.holders
            if holders:
                drow = dist_rows[l1i]
                holder = min(holders, key=lambda h: (drow[h], h))
                point = drow[holder]
                if dead and holder in dead:
                    dead_probe()
                    directory.drop_visible(oid, holder)
                    directory.record_false_positive()
                    pattern = DEAD_HOLDER
                elif caches[holder].lookup(oid, version) is _HIT:
                    pattern = REMOTE
                    for node, held in truth.get(oid, {}).items():
                        if held >= version and node != l1i and drow[node] < point:
                            pattern = SUBOPTIMAL
                            break
                    if not faulted:
                        push_stats.note_time(t)
                        push_stats.demand_bytes += size
                    if not ideal:
                        cache.insert(oid, size, version)
                        announce(t, oid, l1i, version)
                    if policy is not None:
                        apply_pushes(
                            policy.on_remote_fetch(t, size, l1i, holder, point),
                            oid, size, version,
                        )
                    return pattern, holder, 1 if ideal else point
                else:
                    directory.record_false_positive()
                    pattern = FALSE_POS_AT if faulted else FALSE_POS
            else:
                pattern = FALSE_NEG if lookup.false_negative else MISS
                holder, point = -1, 0
            if not faulted:
                push_stats.note_time(t)
                push_stats.demand_bytes += size
            cache.insert(oid, size, version)
            announce(t, oid, l1i, version)
            if policy is not None:
                apply_pushes(
                    policy.on_server_fetch(
                        t, size, l1i, stale or bool(stale_holders), stale_holders
                    ),
                    oid, size, version,
                )
            return pattern, holder, point

        return miss

    def _client_miss(self):
        """ClientHintHierarchy: the seeded false-negative coin, then a hint.

        Replays the reference's short-circuit draw (``rate > 0.0 and
        rng.random() < rate``) exactly once per miss, so the RNG stream
        stays aligned.  The architecture has no degraded request path.
        """
        arch = self.arch
        caches = arch.l1_caches
        directory = arch.directory
        rate = arch.client_false_negative_rate
        draw = arch._rng.random
        dist_rows = self._dist_rows

        def miss(t, oid, version, size, l1i, cache, stale):
            pattern, holder, point = MISS, -1, 0
            if rate > 0.0 and draw() < rate:
                pattern = FALSE_NEG
            else:
                holders = directory.find(t, oid, l1i).holders
                if holders:
                    drow = dist_rows[l1i]
                    holder = min(holders, key=lambda h: (drow[h], h))
                    point = drow[holder]
                    if caches[holder].lookup(oid, version) is _HIT:
                        pattern = REMOTE
                    else:
                        directory.record_false_positive()
                        pattern = FALSE_POS
            cache.insert(oid, size, version)
            directory.inform(t, oid, l1i, version)
            return pattern, holder, point

        return miss

    def _message_miss(self):
        """MessageLevelHintHierarchy: the live packed :class:`HintCluster`.

        ``find_nearest`` / ``local_inform`` drive the same per-node hint
        caches, batched updates and seeded flush jitter as the reference,
        so emergent pathologies (in-flight invalidations, set-conflict
        displacement) reproduce exactly.  No degraded request path.
        """
        arch = self.arch
        caches = arch.l1_caches
        cluster = arch.cluster
        hash_of = arch._hash_of
        dist_rows = self._dist_rows

        def miss(t, oid, version, size, l1i, cache, stale):
            url_hash = hash_of(oid)
            found = cluster.find_nearest(l1i, url_hash, t)
            holder = found.node if found is not None else None
            if holder is not None and holder != l1i:
                point = dist_rows[l1i][holder]
                if caches[holder].lookup(oid, version) is _HIT:
                    pattern = REMOTE
                else:
                    arch.false_positive_probes += 1
                    pattern = FALSE_POS
            else:
                holder, point = -1, 0
                pattern = MISS
                if arch._other_holder_exists(oid, version, l1i):
                    arch.false_negative_misses += 1
                    pattern = FALSE_NEG
            cache.insert(oid, size, version)
            cluster.local_inform(l1i, url_hash, t)
            return pattern, holder, point

        return miss


def kernel_class_for(architecture: "Architecture"):
    """The vectorized kernel for this architecture, or ``None``.

    Exact-type matches only: subclasses may override ``process`` and must
    not silently inherit a kernel that bypasses their behavior.
    """
    from repro.hierarchy.client_hints import ClientHintHierarchy
    from repro.hierarchy.data_hierarchy import DataHierarchy
    from repro.hierarchy.directory_arch import CentralizedDirectoryArchitecture
    from repro.hierarchy.hint_hierarchy import HintHierarchy
    from repro.hierarchy.icp import IcpHierarchy
    from repro.hierarchy.message_hints import MessageLevelHintHierarchy

    return {
        DataHierarchy: HierarchyKernel,
        IcpHierarchy: IcpKernel,
        CentralizedDirectoryArchitecture: DirectoryKernel,
        HintHierarchy: HintKernel,
        ClientHintHierarchy: HintKernel,
        MessageLevelHintHierarchy: HintKernel,
    }.get(type(architecture))


def fast_unsupported_reason(architecture: "Architecture") -> str | None:
    """Why the vectorized path cannot drive this architecture (or None)."""
    if kernel_class_for(architecture) is None:
        return (
            f"no vectorized kernel for architecture {architecture.name!r} "
            f"({type(architecture).__name__}); supported: hierarchy, icp, "
            "hints (plain, push, and ideal-push), directory, client-hints, "
            "and hints-message-level"
        )
    return None


def check_pricings(costs: list, journey_sink, telemetry) -> None:
    """Refuse no cost model, and observers on a run of several."""
    if not costs:
        raise ValueError("costs must name at least one cost model")
    if len(costs) > 1 and (journey_sink is not None or telemetry is not None):
        raise ValueError(
            "journeys and telemetry record one pricing; a run priced under "
            f"{len(costs)} cost models cannot attach them"
        )


def run_fast_simulation(
    trace: "Trace",
    architecture: "Architecture",
    *,
    warmup_s: float | None = None,
    include_uncachable: bool = False,
    fault_plan: "FaultPlan | None" = None,
    journey_sink: "JourneySink | None" = None,
    telemetry: "RunTelemetry | None" = None,
    costs: "Sequence[CostModel]",
    batch_size: int = DEFAULT_BATCH_SIZE,
    priced_rows: list | None = None,
) -> "list[SimMetrics]":
    """Columnar twin of :func:`repro.sim.engine.run_simulation`.

    Accepts configurations the vectorized kernels cover, including fault
    plans: the trace is additionally split at fault-event edges and every
    span, quiescent or inside a fault window, runs the kernel on that
    span's fault snapshot.  Audit hooks (and architectures carrying
    pre-attached fault/audit state) still dispatch to the reference loop
    via the engine.  Its :class:`SimMetrics` are byte-identical.

    ``costs`` prices the one classification under each model and returns
    one :class:`SimMetrics` per model, in order, each equal to a fresh
    single-model run.  Journeys and telemetry describe one pricing, so
    they take a single model.  ``priced_rows``, when given,
    receives ``(trace rows, points, times_ms)`` array triples under the
    first model, one per priced batch, in trace order -- every processed
    row, warmup included.
    """
    if batch_size < 1:
        raise ValueError(f"batch size must be positive, got {batch_size}")
    costs = list(costs)
    check_pricings(costs, journey_sink, telemetry)
    kernel_cls = kernel_class_for(architecture)
    if kernel_cls is None:
        raise ValueError(fast_unsupported_reason(architecture))
    if architecture.faults is not None or architecture.audit is not None:
        raise ValueError(
            "fast engine drives healthy or plan-scheduled runs on a freshly "
            "built architecture; pass fault schedules via fault_plan= "
            "(pre-attached fault state and audit hooks dispatch to the "
            "reference loop)"
        )
    injector: "FaultInjector | None" = None
    if fault_plan is not None and fault_plan:
        from repro.faults.injector import FaultInjector

        injector = FaultInjector(fault_plan)
        injector.bind(architecture)
    boundary = trace.warmup if warmup_s is None else warmup_s
    columns = trace.columns()
    n = len(columns)
    if telemetry is not None:
        telemetry.begin(architecture, injector=injector)

    time_col = columns.time
    error = columns.error
    uncachable = (~columns.cacheable) & (~error)
    if include_uncachable:
        counts = {"included_error": error, "included_uncachable": uncachable}
        process = np.ones(n, dtype=bool)
    else:
        counts = {"skipped_error": error, "skipped_uncachable": uncachable}
        process = ~(error | uncachable)
    counts = {name: int(mask.sum()) for name, mask in counts.items()}
    measured_mask = process & (time_col >= boundary)
    processed_total = int(process.sum())
    counts["warmup_requests"] = processed_total - int(measured_mask.sum())
    # One SimMetrics per cost model; the classification is shared.
    priced = [
        (cost, SimMetrics(architecture=architecture.name, cost_model=cost.name, **counts))
        for cost in costs
    ]

    # Batch spans: fixed-size chunks, additionally split at telemetry bin
    # edges so each span's clock advance (and therefore every bin-close
    # snapshot) lands exactly where the per-request engine would put it,
    # and at fault-event edges so no span straddles an injector state
    # change (events fire during the advance at a span's start, exactly
    # when the reference's per-request advance would fire them).
    edges = set(range(0, n, batch_size))
    if telemetry is not None and n:
        bins = (time_col // telemetry.bin_s).astype(np.int64)
        edges.update((np.flatnonzero(np.diff(bins) != 0) + 1).tolist())
    if injector is not None and n:
        for event in fault_plan.events:
            e = int(np.searchsorted(time_col, event.time, side="left"))
            if 0 < e < n:
                edges.add(e)
    span_edges = sorted(edges) + [n]

    kernel = kernel_cls(architecture, trace)
    requests = trace.requests
    sizes_col = columns.size

    # Host profiler: resolved once per run (detached, every span below is
    # a null context).  Attached runs get one "batch" span per classified
    # span (a "classify" child and hit-miss attributes) and, per flushed
    # batch and cost model, "cost_reconstruct", decode and "metrics_fold"
    # spans beside them.
    profiler = profiling.active()

    def span(name: str, **attrs):
        if profiler is None:
            return nullcontext()
        return profiler.span(name, category="fastpath", **attrs)

    def flush(pending: _Pending) -> None:
        """Price, decode and fold the pending spans once per cost model."""
        idx = pending.idx[0] if len(pending.idx) == 1 else np.concatenate(pending.idx)
        measured = measured_mask[idx]
        sizes = sizes_col[idx]
        for k, (cost, metrics) in enumerate(priced):
            with span("cost_reconstruct", rows=pending.rows, cost=cost.name):
                batch = kernel.price(pending, cost)
            if priced_rows is not None and k == 0:
                priced_rows.append((batch.idx, batch.point, batch.time_ms))
            if telemetry is not None:
                with span("telemetry_decode"):
                    _settle(telemetry, batch, measured, sizes)
            if journey_sink is not None:
                with span("journey_decode"):
                    first = metrics.measured_requests
                    decoded = np.flatnonzero(measured).tolist()
                    trace_rows = batch.idx.tolist()
                    for offset, (row, result) in enumerate(
                        zip(decoded, kernel.journeys(batch, decoded))
                    ):
                        journey_sink.emit(first + offset, requests[trace_rows[row]], result)
            with span("metrics_fold", rows=pending.rows, cost=cost.name):
                _fold_measured(metrics, kernel, batch, measured, sizes)

    # Classified spans wait here until ``batch_size`` rows are pending:
    # pricing, the fold and the telemetry settlement pay their fixed cost
    # once per batch, not once per span.
    pending = _Pending()
    for start, stop in zip(span_edges, span_edges[1:]):
        if telemetry is not None:
            telemetry.advance(float(time_col[start]))
        if injector is not None:
            injector.advance(float(time_col[start]))
        idx = np.flatnonzero(process[start:stop]) + start
        rows = int(idx.size)
        if rows == 0:
            continue
        state = _Faults.of(injector)
        kernel.span_begin(state)
        with span("batch", rows=rows) as batch_span:
            with span("classify", rows=rows):
                classified = kernel.classify(idx)
            if batch_span is not None:
                hits = kernel.l1_hits(rows, classified)
                batch_span.attrs["l1_hits"] = hits
                batch_span.attrs["l1_misses"] = rows - hits
        pending.add(idx, classified, state)
        if telemetry is not None:
            telemetry.defer(rows)
        if pending.rows >= batch_size:
            flush(pending)
            pending = _Pending()
    if pending.rows:
        flush(pending)

    architecture.processed_requests += processed_total
    if telemetry is not None:
        telemetry.finish(trace.duration)
    for _cost, metrics in priced:
        metrics.validate(expected_requests=n)
    return [metrics for _cost, metrics in priced]


def _fold_measured(
    metrics: SimMetrics,
    kernel: _Kernel,
    batch: _BatchResult,
    measured: np.ndarray,
    sizes: np.ndarray,
) -> None:
    """Fold a priced batch's measured rows into SimMetrics, bit-identically."""
    patterns = batch.pattern[measured]
    count = len(patterns)
    if count == 0:
        return
    times = batch.time_ms[measured]
    points = batch.point[measured]
    flags = batch.flags[measured]
    msizes = sizes[measured]
    width = kernel._width
    slot_costs = [costs[measured] for costs in batch.slot_costs]
    # Fault surcharges exist only for batches with rows in active fault
    # windows; the other rows carry 0.0, the identity of every fault sum.
    fault_slots = None
    degraded = metrics.degraded
    if batch.fault_slots is not None:
        fault_slots = [faults[measured] for faults in batch.fault_slots]
        degraded.faulted_requests += int((batch.active & measured).sum())
        degraded.fault_added_ms = _sequential_sum(
            degraded.fault_added_ms, batch.fault_ms[measured]
        )

    metrics.measured_requests += count
    metrics.total_ms = _sequential_sum(metrics.total_ms, times)
    metrics.latency.bulk_record(times)
    point_counts = np.bincount(points, minlength=5)
    for point in AccessPoint:
        hits = int(point_counts[int(point)])
        if hits:
            metrics.requests_by_point[point] += hits
            metrics.bytes_by_point[point] += int(msizes[points == int(point)].sum())
    metrics.remote_hits += int((flags & FLAG_REMOTE_HIT != 0).sum())
    metrics.false_positives += int((flags & FLAG_FALSE_POSITIVE != 0).sum())
    metrics.false_negatives += int((flags & FLAG_FALSE_NEGATIVE != 0).sum())
    metrics.suboptimal_positives += int((flags & FLAG_SUBOPTIMAL != 0).sum())
    metrics.push_hits += int((flags & FLAG_PUSH_HIT != 0).sum())
    degraded.stale_hint_forwards += int((flags & FLAG_STALE_FORWARD != 0).sum())
    degraded.timeout_fallbacks += int((flags & FLAG_TIMEOUT != 0).sum())
    metrics.journeyed_requests += count

    # Per-kind step fold.  Aggregates are created in first-seen order
    # (row-major, then slot order within a row) so rendered decomposition
    # tables iterate kinds exactly as the reference engine built them.
    counts = np.bincount(patterns).tolist()
    masks = {p: patterns == p for p, c in enumerate(counts) if c}
    steps = metrics.steps
    first_seen: dict[str, int] = {}
    for pattern, rows in masks.items():
        ordinal_base = int(rows.argmax()) * width
        for slot, step in enumerate(kernel.steps[pattern]):
            kind = step.kind.value
            if kind not in steps:
                ordinal = ordinal_base + slot
                if kind not in first_seen or ordinal < first_seen[kind]:
                    first_seen[kind] = ordinal
    for kind in sorted(first_seen, key=first_seen.get):
        steps[kind] = StepAggregate(kind=kind)

    for kind, occ_by_pattern in kernel.kinds.items():
        # A pattern may carry the same kind more than once (e.g. the
        # directory's stale forward probes the directory *and* the dead
        # holder).  The reference folds steps row-major, journey order
        # within a row -- so lay costs out as (row, occurrence) and
        # flatten.
        present = [(p, slots) for p, slots in occ_by_pattern.items() if p in masks]
        if not present:
            continue
        occurrences = max(len(slots) for _, slots in present)
        valid = np.zeros((count, occurrences), dtype=bool)
        cost_grid = np.zeros((count, occurrences), dtype=np.float64)
        fault_grid = None if fault_slots is None else np.zeros_like(cost_grid)
        wasted_count = 0
        for pattern, slots in present:
            rows = masks[pattern]
            for occurrence, (slot, wasted) in enumerate(slots):
                valid[rows, occurrence] = True
                cost_grid[rows, occurrence] = slot_costs[slot][rows]
                if fault_grid is not None:
                    fault_grid[rows, occurrence] = fault_slots[slot][rows]
                if wasted:
                    wasted_count += counts[pattern]
        flat = valid.ravel()
        costs = cost_grid.ravel()[flat]
        agg = steps[kind]
        agg.count += len(costs)
        agg.total_ms = _sequential_sum(agg.total_ms, costs)
        agg.wasted += wasted_count
        agg.latency.bulk_record(costs)
        if fault_grid is not None:
            agg.fault_ms = _sequential_sum(agg.fault_ms, fault_grid.ravel()[flat])


def _settle(
    telemetry: "RunTelemetry",
    batch: _BatchResult,
    measured: np.ndarray,
    sizes: np.ndarray,
) -> None:
    """Account a priced batch's rows into telemetry, decoding the flags."""
    flags = batch.flags
    telemetry.settle(
        point=batch.point,
        size=sizes,
        time_ms=batch.time_ms,
        measured=measured,
        remote_hit=flags & FLAG_REMOTE_HIT != 0,
        false_positive=flags & FLAG_FALSE_POSITIVE != 0,
        false_negative=flags & FLAG_FALSE_NEGATIVE != 0,
        suboptimal_positive=flags & FLAG_SUBOPTIMAL != 0,
        push_hit=flags & FLAG_PUSH_HIT != 0,
        timeout_fallback=flags & FLAG_TIMEOUT != 0,
        stale_hint_forward=flags & FLAG_STALE_FORWARD != 0,
        fault_ms=batch.fault_ms,
    )
