"""Table 5: location-hint update load at the root.

Two metadata organizations process the same stream of cache add/drop
events from 64 L1 proxies driven by the DEC trace:

* a **centralized directory**, which receives every update;
* the paper's **filtering hierarchy**, where an update climbs only while
  it is the first copy in the enclosing subtree.

The paper reports 5.7 updates/s (centralized) vs 1.9 updates/s
(hierarchy) -- a ~3x reduction.  The same run also reproduces the
bandwidth arithmetic of section 3.1.1: updates/s x 20 bytes.
"""

from __future__ import annotations

from repro.cache.lru import CacheEntry, LRUCache
from repro.experiments.base import ExperimentResult, resolve_config, trace_for
from repro.hints.propagation import CentralizedDirectoryProtocol, HintPropagationTree
from repro.hints.wire import UPDATE_RECORD_BYTES
from repro.sim.config import ExperimentConfig


def run(
    config: ExperimentConfig | None = None, profile_name: str = "dec"
) -> ExperimentResult:
    """Replay cache add/drop events through both protocols and compare."""
    config = resolve_config(config)
    trace = trace_for(config, profile_name)
    topology = config.topology

    tree = HintPropagationTree.balanced(
        branching=topology.l1_per_l2, leaves=topology.n_l1
    )
    central = CentralizedDirectoryProtocol()

    # Per-L1 data caches generating the inform/retract stream.  The
    # space-constrained capacity keeps evictions (and hence retract
    # traffic) realistic.
    def evict_handler(leaf: int):
        def on_evict(key: int, entry: CacheEntry, reason: str) -> None:
            tree.retract(leaf, key)
            central.retract(leaf, key)

        return on_evict

    caches = [
        LRUCache(config.l1_cache_bytes, on_evict=evict_handler(leaf))
        for leaf in range(topology.n_l1)
    ]

    from repro.cache.lru import LookupResult  # local import to avoid cycle noise

    columns = trace.columns()
    for client, object_id, size, version in columns.fields(
        "client", "object", "size", "version", where=columns.cacheable & ~columns.error
    ):
        leaf = topology.l1_of_client(client)
        if caches[leaf].lookup(object_id, version) is LookupResult.HIT:
            continue
        caches[leaf].insert(object_id, size, version)
        tree.inform(leaf, object_id)
        central.inform(leaf, object_id)

    duration = trace.duration
    central_rate = central.messages_received / duration
    root_rate = tree.root_messages / duration
    rows = [
        {
            "organization": "centralized directory",
            "root_updates": central.messages_received,
            "updates_per_s": central_rate,
            "bandwidth_bytes_per_s": central_rate * UPDATE_RECORD_BYTES,
        },
        {
            "organization": "hierarchy",
            "root_updates": tree.root_messages,
            "updates_per_s": root_rate,
            "bandwidth_bytes_per_s": root_rate * UPDATE_RECORD_BYTES,
        },
    ]
    reduction = (
        central.messages_received / tree.root_messages if tree.root_messages else 0.0
    )
    return ExperimentResult(
        experiment="table5",
        description="hint update load at the root: centralized vs filtering hierarchy",
        rows=rows,
        paper_claims={
            "centralized": "5.7 updates/second at the root",
            "hierarchy": "1.9 updates/second at the root (~3x reduction)",
            "bandwidth": "20 B/update; busiest hint cache needs ~38 B/s",
            "measured reduction here": f"{reduction:.1f}x",
        },
        notes=[
            "Request rates are scaled down with the trace, so absolute "
            "updates/s differ; the centralized-vs-hierarchy reduction factor "
            "is the reproduced quantity.",
        ],
    )
