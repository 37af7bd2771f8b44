"""Hierarchical push on miss (paper section 4.1.3).

"When a cache fetches an object from a cousin for which a level-L parent
is the least common ancestor in the metadata hierarchy, the cache
supplying the object also pushes the object to a random node in each of
the level-(L-1) subtrees that share the level-L parent."

Intuition: if two subtrees of a hierarchy access an item, many subtrees
probably will; replication breadth therefore tracks popularity without any
explicit popularity counters.

Three aggressiveness settings from the paper's evaluation:

* **push-1** -- one random node per eligible subtree;
* **push-half** -- half of the nodes in each eligible subtree;
* **push-all** -- every node in each eligible subtree.

In the paper's three-level system, eligible subtrees are: on an
L3-distance fetch, every L2 group (each contributing 1 / half / all of its
L1 members); on an L2-distance fetch, every level-1 subtree under that L2
parent -- and a level-1 subtree is a single L1 cache, so all three
settings push to every sibling there (matching Figure 9's "pushes object B
to all level-1 nodes under that level-2 parent").

The policy returns the target L1 ids; the host stores the fetched object
there.  A fetch's eligible subtrees depend only on the requester, the
source and the distance class, so each such plan is built once per policy
and reused.
"""

from __future__ import annotations

import numpy as np

from repro.hierarchy.topology import HierarchyTopology
from repro.push.base import PushPolicy

#: Aggressiveness settings and the fraction of each subtree they cover.
_MODES = ("push-1", "push-half", "push-all")


class HierarchicalPushOnMiss(PushPolicy):
    """Push to sibling subtrees on cache-to-cache fetches.

    Args:
        topology: The hierarchy the metadata tree follows.
        mode: ``"push-1"``, ``"push-half"``, or ``"push-all"``.
        seed: Randomness for target selection within subtrees.
    """

    def __init__(self, topology: HierarchyTopology, mode: str, seed: int = 0) -> None:
        if mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")
        self.topology = topology
        self.mode = mode
        self.name = mode
        self._rng = np.random.default_rng(seed)
        self._groups = [topology.l1_nodes_of_l2(g) for g in range(topology.n_l2)]
        self._singletons = [[node] for node in range(topology.n_l1)]
        #: (requester, source, across L2 groups) -> (eligible subtrees in
        #: order, push-1's draw bounds: the sizes of the multi-member ones).
        self._plans: dict[tuple[int, int, bool], tuple[list[list[int]], np.ndarray]] = {}

    def on_remote_fetch(
        self,
        now: float,
        size: int,
        requester_l1: int,
        source_l1: int,
        lca_level: int,
    ) -> list[int]:
        if lca_level <= 1:
            return []
        key = (requester_l1, source_l1, lca_level >= 3)
        plan = self._plans.get(key)
        if plan is None:
            plan = self._plans[key] = self._plan(*key)
        subtrees, highs = plan
        if self.mode == "push-1":
            # One draw per multi-member subtree, all in one call: the same
            # stream as a ``choice(members)`` per subtree.
            picks = iter(self._rng.integers(0, highs).tolist() if highs.size else ())
            return [m[next(picks)] if len(m) > 1 else m[0] for m in subtrees]
        targets: list[int] = []
        for members in subtrees:
            if self.mode == "push-all" or len(members) == 1:
                targets.extend(members)
            else:
                # "Half of the nodes" rounds *up*: a 3-node subtree pushes
                # to 2, never 1 (ceil, matching the paper's push-half).
                count = (len(members) + 1) // 2
                chosen = self._rng.choice(members, size=count, replace=False)
                targets.extend(chosen.tolist())
        return targets

    def _plan(
        self, requester_l1: int, source_l1: int, across_l2: bool
    ) -> tuple[list[list[int]], np.ndarray]:
        """The fetch's eligible subtrees, sharing every untouched member list."""
        if across_l2:
            # Eligible subtrees: every L2 group under the (single) L3 root.
            groups = self._groups
        else:
            # Eligible subtrees: the level-1 subtrees (individual L1 caches)
            # under the shared L2 parent.
            group = self._groups[self.topology.l2_of_l1(requester_l1)]
            groups = [self._singletons[node] for node in group]
        subtrees = []
        for members in groups:
            if requester_l1 in members or source_l1 in members:
                members = [n for n in members if n not in (requester_l1, source_l1)]
            if members:
                subtrees.append(members)
        highs = np.array([len(m) for m in subtrees if len(m) > 1], dtype=np.int64)
        return subtrees, highs
