"""Location-hint system (the paper's primary contribution, Section 3).

The hint system separates data paths from metadata paths: data lives only
in leaf proxy caches, while a metadata hierarchy propagates *location
hints* -- small fixed-size records saying "the nearest known copy of object
X is at cache Y".  A proxy that misses locally consults its local hint
cache (microseconds), then either fetches the object directly from a peer
cache (one cache-to-cache hop) or goes straight to the origin server.

Layers, prototype-faithful to simulation-level:

* :mod:`repro.hints.records` -- the 16-byte packed hint record.
* :mod:`repro.hints.wire` -- the 20-byte update message, batching, and the
  randomized 0-60 s update period (anti-synchronization per Floyd/Jacobson).
* :mod:`repro.hints.hintcache` -- 4-way set-associative hint cache over a
  packed byte array (exactly the prototype's layout).
* :mod:`repro.hints.storage` -- the same layout over an mmap'ed file.
* :mod:`repro.hints.node` / :mod:`repro.hints.cluster` -- per-proxy hint
  modules and the event-driven cluster that carries their updates as
  packed 20-byte records over the metadata tree.
* :mod:`repro.hints.directory` -- the simulation-level hint view with
  capacity limits (Figure 5) and propagation delay (Figure 6).
* :mod:`repro.hints.propagation` -- the hierarchical update-filtering
  protocol and its root-load accounting (Table 5).
"""

from repro.hints.arithmetic import (
    caches_indexable,
    hint_index_entries,
    index_reach_ratio,
    update_bandwidth_bytes_per_s,
)
from repro.hints.cluster import HintCluster
from repro.hints.directory import HintDirectory, HintLookup
from repro.hints.node import HintNode
from repro.hints.hintcache import HINT_RECORD_BYTES, HintCache
from repro.hints.propagation import CentralizedDirectoryProtocol, HintPropagationTree
from repro.hints.records import HintRecord, MachineId
from repro.hints.squid_module import SquidHintModule
from repro.hints.storage import MmapHintStore
from repro.hints.wire import (
    UPDATE_RECORD_BYTES,
    HintAction,
    HintUpdate,
    UpdateBatcher,
    decode_updates,
    encode_updates,
)

__all__ = [
    "HINT_RECORD_BYTES",
    "UPDATE_RECORD_BYTES",
    "CentralizedDirectoryProtocol",
    "HintAction",
    "HintCache",
    "HintCluster",
    "HintDirectory",
    "HintNode",
    "HintLookup",
    "HintPropagationTree",
    "HintRecord",
    "HintUpdate",
    "MachineId",
    "MmapHintStore",
    "SquidHintModule",
    "UpdateBatcher",
    "caches_indexable",
    "decode_updates",
    "encode_updates",
    "hint_index_entries",
    "index_reach_ratio",
    "update_bandwidth_bytes_per_s",
]
