"""Content-addressed trace cache: generate each distinct trace once.

Two layers, consulted in order:

* an **in-process memo** (fingerprint -> :class:`~repro.traces.records.Trace`),
  so one CLI/pytest session never generates the same trace twice;
* an optional **on-disk store** (``<dir>/<fingerprint>.npz`` via the
  column-array serialization in :mod:`repro.traces.io`), so traces survive
  across sessions and are shared between the worker processes of a
  parallel run.

Traces handed out are shared **read-only**: nothing in the simulator
mutates a :class:`~repro.traces.records.Trace` (architectures only read
requests), which is what makes handing the same object to many
``run_simulation`` calls safe.  The cache keeps :class:`TraceCacheStats`
counters -- generations, hits per layer, and generation wall-clock -- so a
run summary can *prove* a warm run performed zero generations.

A module-level *active* cache backs :func:`cached_trace`, which is what
`repro.experiments.base.trace_for` and the other generation sites call;
installing a disk-backed cache (``--trace-cache DIR`` on the experiments
CLI) upgrades every experiment at once.

**Crash-recovery guarantees.**  The on-disk store is shared by every
worker of a parallel (or sharded) run, so it must survive workers dying
mid-write and foreign or truncated files appearing in the directory:

* *Publishes are atomic*: a store writes ``.{fingerprint}.{pid}.tmp.npz``
  and ``os.replace``\\ s it into place, so readers never observe a partial
  ``<fingerprint>.npz``.
* *Unreadable entries regenerate*: a truncated, corrupt, or foreign
  ``.npz`` under a fingerprint name raises ``TraceFormatError`` inside
  ``_load`` (the npz reader wraps member extraction, not just the open)
  and the cache regenerates the trace instead of crashing the run.
* *Temp files never leak*: a failed store unlinks its temp file on the
  way out (and a failed disk write does not fail the ``get`` -- the trace
  is already in memory), and each cache construction sweeps orphaned
  ``.tmp.npz`` files left by killed processes, skipping any whose writer
  pid is still alive.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from typing import Callable, TypeVar

from repro.common.errors import TraceFormatError
from repro.common.timing import Stopwatch
from repro.obs import profiling
from repro.runner.fingerprint import trace_fingerprint
from repro.traces.io import read_trace, write_trace
from repro.traces.profiles import WorkloadProfile
from repro.traces.records import Trace
from repro.traces.synthetic import SyntheticTraceGenerator

T = TypeVar("T")


@dataclass
class TraceCacheStats:
    """Instrumentation counters for one :class:`TraceCache`.

    Attributes:
        generations: Traces built from scratch by the generator (the
            expensive path the cache exists to avoid).
        generation_seconds: Wall-clock spent inside those generations.
        memory_hits: Requests served from the in-process memo.
        disk_hits: Requests served by deserializing an ``.npz`` file.
        disk_writes: Freshly generated traces persisted to the store.
        memo_computations: Results computed by :func:`memoized` (a
            repeat of one key reads the memo and is not counted).
    """

    generations: int = 0
    generation_seconds: float = 0.0
    memory_hits: int = 0
    disk_hits: int = 0
    disk_writes: int = 0
    memo_computations: int = 0

    def snapshot(self) -> "TraceCacheStats":
        """An independent copy (for before/after deltas)."""
        return replace(self)

    def since(self, earlier: "TraceCacheStats") -> "TraceCacheStats":
        """Counter deltas accumulated after ``earlier`` was snapshotted."""
        return TraceCacheStats(
            generations=self.generations - earlier.generations,
            generation_seconds=self.generation_seconds - earlier.generation_seconds,
            memory_hits=self.memory_hits - earlier.memory_hits,
            disk_hits=self.disk_hits - earlier.disk_hits,
            disk_writes=self.disk_writes - earlier.disk_writes,
            memo_computations=self.memo_computations - earlier.memo_computations,
        )

    def merge(self, other: "TraceCacheStats") -> None:
        """Fold another stats object (e.g. a worker's delta) into this one."""
        self.generations += other.generations
        self.generation_seconds += other.generation_seconds
        self.memory_hits += other.memory_hits
        self.disk_hits += other.disk_hits
        self.disk_writes += other.disk_writes
        self.memo_computations += other.memo_computations

    def describe(self) -> str:
        """One-line human rendering for run summaries."""
        return (
            f"traces: {self.generations} generated "
            f"({self.generation_seconds:.1f}s), "
            f"{self.memory_hits} memory hits, {self.disk_hits} disk hits, "
            f"{self.disk_writes} disk writes, "
            f"{self.memo_computations} memo computations"
        )


def _pid_alive(pid: int) -> bool:
    """Whether ``pid`` names a live process on this host (signal-0 probe)."""
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - exists but not ours
        return True
    except OSError:  # pragma: no cover - platform oddity: assume alive
        return True
    return True


class TraceCache:
    """Memoizing trace factory keyed by content fingerprint.

    Args:
        directory: Optional on-disk store.  Created on first write; shared
            safely between concurrent processes (writes are atomic
            temp-file + rename, and identical fingerprints imply identical
            bytes, so a lost race wastes one generation, never corrupts).
    """

    def __init__(self, directory: str | os.PathLike | None = None) -> None:
        self.directory = os.fspath(directory) if directory is not None else None
        self.stats = TraceCacheStats()
        self._memory: dict[str, Trace] = {}
        #: Results computed from this cache's traces (see :func:`memoized`).
        self.results: dict = {}
        self._sweep_orphans()

    def get(self, profile: WorkloadProfile, seed: int) -> Trace:
        """The trace for ``(profile, seed)``: memo, then disk, then generate."""
        fingerprint = trace_fingerprint(profile, seed)
        trace = self._memory.get(fingerprint)
        if trace is not None:
            self.stats.memory_hits += 1
            return trace
        trace = self._load(fingerprint)
        if trace is None:
            profiler = profiling.active()
            if profiler is None:
                with Stopwatch() as watch:
                    trace = SyntheticTraceGenerator(profile, seed=seed).generate()
            else:
                with profiler.span(
                    "trace_gen",
                    category="runner",
                    profile=profile.name,
                    seed=seed,
                    fingerprint=fingerprint[:12],
                ) as span, Stopwatch() as watch:
                    trace = SyntheticTraceGenerator(profile, seed=seed).generate()
                    span.attrs["requests"] = len(trace.requests)
            self.stats.generation_seconds += watch.elapsed
            self.stats.generations += 1
            self._store(fingerprint, trace)
        self._memory[fingerprint] = trace
        return trace

    def clear_memory(self) -> None:
        """Drop the in-process memos (disk files are left in place)."""
        self._memory.clear()
        self.results.clear()

    def __len__(self) -> int:
        return len(self._memory)

    def _path(self, fingerprint: str) -> str:
        assert self.directory is not None
        return os.path.join(self.directory, f"{fingerprint}.npz")

    def _load(self, fingerprint: str) -> Trace | None:
        if self.directory is None:
            return None
        path = self._path(fingerprint)
        if not os.path.exists(path):
            return None
        try:
            trace = read_trace(path)
        except TraceFormatError:
            # Unreadable entry (truncated write from a killed process, or
            # foreign file): regenerate rather than fail the run.
            return None
        self.stats.disk_hits += 1
        return trace

    def _sweep_orphans(self) -> None:
        """Remove ``.tmp.npz`` files orphaned by killed writer processes.

        Temp names embed the writer's pid; a file whose writer is still
        alive is left alone (it is mid-write and about to be renamed), so
        the sweep is safe to run while sibling workers share the store.
        """
        if self.directory is None or not os.path.isdir(self.directory):
            return
        for name in os.listdir(self.directory):
            if not (name.startswith(".") and name.endswith(".tmp.npz")):
                continue
            parts = name.split(".")
            # ".{fingerprint}.{pid}.tmp.npz" -> ["", fp, pid, "tmp", "npz"]
            try:
                pid = int(parts[-3])
            except (IndexError, ValueError):
                pid = None
            if pid is not None and _pid_alive(pid):
                continue
            try:
                os.unlink(os.path.join(self.directory, name))
            except OSError:
                pass

    def _store(self, fingerprint: str, trace: Trace) -> None:
        if self.directory is None:
            return
        path = self._path(fingerprint)
        temporary = os.path.join(
            self.directory, f".{fingerprint}.{os.getpid()}.tmp.npz"
        )
        # Atomic publish: concurrent workers may race on the same
        # fingerprint; both produce identical bytes and os.replace makes
        # whichever finishes last win without readers ever seeing a
        # partial file.  A failed write (disk full, permissions) must not
        # fail the run -- the trace is already in memory -- and must not
        # leak its temp file.
        try:
            os.makedirs(self.directory, exist_ok=True)
            write_trace(trace, temporary)
            os.replace(temporary, path)
        except OSError:
            return
        finally:
            try:
                os.unlink(temporary)
            except OSError:
                pass
        self.stats.disk_writes += 1


_ACTIVE = TraceCache()


def get_trace_cache() -> TraceCache:
    """The process-wide cache backing :func:`cached_trace`."""
    return _ACTIVE


def set_trace_cache(cache: TraceCache) -> TraceCache:
    """Install a new active cache; returns the previous one."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = cache
    return previous


def cached_trace(profile: WorkloadProfile, seed: int) -> Trace:
    """Fetch-or-generate a trace through the active cache (read-only share)."""
    return _ACTIVE.get(profile, seed)


def memoized(key, compute: Callable[[], T]) -> T:
    """``compute()`` once per ``key`` for the active cache's lifetime.

    Lets experiments share simulation results (``table6`` reads
    ``figure8``'s cells) without re-running them.  The memo lives and
    dies with the active cache: the CLI process, each parallel worker and
    each benchmark pass install a fresh one, so nothing outlives a run.
    An experiment that reads another's memo is declared in
    :data:`repro.experiments.registry.MEMO_PRODUCERS`, so a parallel run
    keeps it in its producer's worker.  ``key`` must name every input of
    ``compute``; values are shared read-only, like the traces.
    """
    cache = _ACTIVE
    if key not in cache.results:
        cache.results[key] = compute()
        cache.stats.memo_computations += 1
    return cache.results[key]
