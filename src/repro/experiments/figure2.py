"""Figure 2: sources of cache misses vs global cache size.

One infinite population of clients shares a single LRU cache whose size is
swept; every access is classified as hit / compulsory / capacity /
communication / error / uncachable, per-request and per-byte.

Paper shape claims this reproduction preserves:

* even an infinite cache misses a lot -- compulsory misses dominate
  (DEC: ~19% of requests are first references);
* capacity misses vanish once the cache reaches a few GB (scaled here);
* Berkeley/Prodigy show markedly more uncachable requests than DEC.
"""

from __future__ import annotations

import numpy as np

from repro.cache.classify import MissClass, MissClassifier, MissCounts
from repro.cache.lru import LRUCache
from repro.experiments.base import ExperimentResult, resolve_config, trace_for
from repro.sim.config import ExperimentConfig
from repro.traces.profiles import all_profiles
from repro.traces.records import Trace

#: Cache sizes as fractions of the trace's distinct-object byte volume;
#: 0 means no cache is too small to matter, None means infinite.
SIZE_FRACTIONS = (0.01, 0.05, 0.1, 0.2, 0.4, 0.8, 1.5, None)


def _unique_bytes(trace: Trace) -> int:
    # Each distinct object counted once, at its last size in the trace.
    return sum(dict(trace.columns().fields("object", "size")).values())


def miss_breakdown(trace: Trace, capacity_bytes: int | None) -> dict:
    """Classify the whole trace against one shared cache of the given size.

    The warmup window fills the cache but its accesses are not reported
    (counters are reset at the boundary), matching the paper's "first two
    days warm our caches" methodology.
    """
    classifier = MissClassifier(LRUCache(capacity_bytes))
    columns = trace.columns()
    first_measured = int(np.searchsorted(columns.time, trace.warmup))
    for index, fields in enumerate(
        columns.fields("object", "size", "version", "cacheable", "error")
    ):
        if index == first_measured:
            classifier.counts = MissCounts()
        classifier.access_fields(*fields)
    counts = classifier.counts
    row = {
        "cache_mb": (capacity_bytes or 0) / (1024 * 1024) if capacity_bytes else float("inf"),
        "total_miss": counts.miss_ratio(),
        "total_byte_miss": counts.byte_miss_ratio(),
    }
    for miss_class in MissClass:
        row[miss_class.name.lower()] = counts.miss_ratio(miss_class)
        row[f"byte_{miss_class.name.lower()}"] = counts.byte_miss_ratio(miss_class)
    return row


def run(config: ExperimentConfig | None = None) -> ExperimentResult:
    """Sweep global cache size for each trace and break down the misses."""
    config = resolve_config(config)
    rows = []
    for profile in all_profiles():
        trace = trace_for(config, profile.name)
        unique = _unique_bytes(trace)
        for fraction in SIZE_FRACTIONS:
            capacity = None if fraction is None else max(1, int(unique * fraction))
            row = {"trace": profile.name, "size_fraction": fraction if fraction else "inf"}
            row.update(miss_breakdown(trace, capacity))
            rows.append(row)
    return ExperimentResult(
        experiment="figure2",
        chart_spec={
            "kind": "xy", "x": "cache_mb", "y": ["total_miss"],
            "group": "trace", "log_x": True,
        },
        description="miss-class breakdown vs global shared cache size",
        rows=rows,
        paper_claims={
            "DEC compulsory share": "~19% of all requests are compulsory misses",
            "capacity misses": "minor for multi-gigabyte caches",
            "Berkeley/Prodigy": "significant uncachable and communication misses",
        },
        notes=[
            "Cache sizes are expressed as fractions of the trace's distinct-"
            "object byte volume (the paper's 0-35 GB axis, scaled).",
        ],
    )
