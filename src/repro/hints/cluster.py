"""A cluster of hint nodes exchanging batched updates (section 3.2, live).

Where :class:`~repro.hints.directory.HintDirectory` *models* hint
propagation with a single delay parameter, this module *runs* it: every
node batches its updates and POSTs them to its metadata-tree neighbors on
the paper's randomized 0-60 s period; batches travel over links with
latency; received updates are applied to the local hint cache and
forwarded along the tree (arrival edge excluded, so a tree delivers each
update exactly once per node).

This closes the loop between Figure 6 and the mechanism: with per-hop
batching of up to 60 s and a three-level tree, an update reaches every
hint cache within a few minutes -- exactly the staleness regime Figure 6
shows to be tolerable.  ``benchmarks/test_bench_propagation.py`` measures
the distribution.

Batches travel as the packed 20-byte records their originators wrote: a
flush joins each neighbor's pending records without re-encoding them (so
:attr:`HintCluster.bytes_sent` is 20 bytes per update delivered), and a
delivery hands the bytes to the receiving node, which applies them as
plain integers.  No update object is built on the way.
"""

from __future__ import annotations

import heapq
import itertools
from collections.abc import Iterator

import numpy as np

from repro.common.errors import TopologyError
from repro.hints.node import HintNode
from repro.hints.records import MachineId
from repro.hints.wire import MAX_UPDATE_PERIOD_S

#: Flush periods drawn per generator call.  One ``uniform(0, p, n)`` call
#: yields the same doubles as ``n`` scalar draws, so the period sequence
#: is the scalar one, with the per-call cost paid once per block.
JITTER_BLOCK = 1024


class HintCluster:
    """Event-driven simulation of hint nodes on a metadata tree.

    Args:
        parents: Tree as a parent vector (``None`` marks the root); node
            indices double as tree positions.
        hint_capacity_bytes: Per-node hint-cache size.
        link_latency_s: One-way latency of every tree edge.
        max_period_s: Upper bound of the uniform batching period.
        seed: Randomness for the per-node flush jitter.
    """

    def __init__(
        self,
        parents: list[int | None],
        hint_capacity_bytes: int = 1 << 20,
        link_latency_s: float = 0.1,
        max_period_s: float = MAX_UPDATE_PERIOD_S,
        seed: int = 0,
    ) -> None:
        roots = [i for i, parent in enumerate(parents) if parent is None]
        if len(roots) != 1:
            raise TopologyError(f"tree needs exactly one root, found {len(roots)}")
        if link_latency_s < 0 or max_period_s <= 0:
            raise TopologyError("latency must be >= 0 and period > 0")
        self.parents = list(parents)
        self.root = roots[0]
        self.link_latency_s = link_latency_s
        self.max_period_s = max_period_s
        self._rng = np.random.default_rng(seed)
        self._periods: Iterator[float] = iter(())

        self.nodes = [
            HintNode(i, hint_capacity_bytes) for i in range(len(parents))
        ]
        self._neighbors: list[list[int]] = [[] for _ in parents]
        for child, parent in enumerate(parents):
            if parent is not None:
                if not 0 <= parent < len(parents):
                    raise TopologyError(f"node {child} has bad parent {parent}")
                self._neighbors[child].append(parent)
                self._neighbors[parent].append(child)

        # Event heap: (time, seq, kind, node, payload).
        self._events: list[tuple[float, int, str, int, object]] = []
        self._seq = itertools.count()
        self._flush_scheduled = [False] * len(parents)
        self._failed = [False] * len(parents)
        self.now = 0.0
        self.batches_sent = 0
        self.bytes_sent = [0] * len(parents)
        self.batches_lost_to_failures = 0

    @classmethod
    def balanced(cls, branching: int, leaves: int, **kwargs) -> "HintCluster":
        """Build over the same balanced tree shape Table 5 uses."""
        from repro.hints.propagation import HintPropagationTree

        tree = HintPropagationTree.balanced(branching=branching, leaves=leaves)
        return cls(parents=tree.parent_vector(), **kwargs)

    # ------------------------------------------------------------------
    # external API
    # ------------------------------------------------------------------
    def local_inform(self, node: int, url_hash: int, now: float) -> None:
        """Node's data cache stored an object (drives a future flush)."""
        self._advance(now)
        self.nodes[node].inform(url_hash, now)
        self._ensure_flush(node, now)

    def local_invalidate(self, node: int, url_hash: int, now: float) -> None:
        """Node's data cache dropped an object."""
        self._advance(now)
        self.nodes[node].invalidate(url_hash, now)
        self._ensure_flush(node, now)

    def find_nearest(self, node: int, url_hash: int, now: float) -> MachineId | None:
        """What node's hint cache currently knows (after advancing time)."""
        self._advance(now)
        return self.nodes[node].find_nearest(url_hash)

    def run_until(self, time: float) -> None:
        """Process all flushes and deliveries up to ``time``."""
        self._advance(time)

    def visibility_delays(self, url_hash: int, origin: int) -> list[float]:
        """Per-node delay from the origin's inform to local visibility.

        Only nodes that have learned of the object are included; call
        :meth:`run_until` far enough ahead first.
        """
        start = self.nodes[origin].first_learned.get(url_hash)
        if start is None:
            raise KeyError(f"node {origin} never informed about {url_hash:#x}")
        return [
            node.first_learned[url_hash] - start
            for node in self.nodes
            if node.index != origin and url_hash in node.first_learned
        ]

    def coverage(self, url_hash: int) -> float:
        """Fraction of live nodes whose hint cache knows of the object."""
        live = [n for n in self.nodes if not self._failed[n.index]]
        knowing = sum(1 for node in live if url_hash in node.first_learned)
        return knowing / len(live) if live else 0.0

    # ------------------------------------------------------------------
    # failures and reconfiguration
    # ------------------------------------------------------------------
    def fail_node(self, node: int, now: float) -> None:
        """Crash a metadata node: it stops flushing, forwarding, receiving.

        A failed interior node partitions the tree -- updates crossing it
        are lost (counted in :attr:`batches_lost_to_failures`) until
        :meth:`reconfigure` installs a new tree, which is what the paper's
        self-configuring Plaxton hierarchy provides.
        """
        self._advance(now)
        if not 0 <= node < len(self.nodes):
            raise TopologyError(f"no such node {node}")
        self._failed[node] = True

    def recover_node(self, node: int, now: float) -> None:
        """Bring a crashed metadata node back on its existing tree edges.

        The node resumes flushing/forwarding/receiving and re-advertises
        its own holdings (its hint cache survived locally; what it missed
        while down re-converges as neighbors keep batching).  Use
        :meth:`reconfigure` instead when the topology itself changed.
        """
        self._advance(now)
        if not 0 <= node < len(self.nodes):
            raise TopologyError(f"no such node {node}")
        if not self._failed[node]:
            return
        self._failed[node] = False
        revived = self.nodes[node]
        revived.readvertise(now)
        if revived.outbox:
            self._ensure_flush(node, now)

    def reconfigure(self, parents: list[int | None], now: float) -> None:
        """Install a new metadata tree over the surviving nodes.

        Hint caches and pending outboxes survive (they belong to the
        proxies, not the tree); only the forwarding topology changes.
        Edges may not touch failed nodes.
        """
        self._advance(now)
        if len(parents) != len(self.nodes):
            raise TopologyError("reconfiguration must cover every node slot")
        roots = [
            i for i, parent in enumerate(parents)
            if parent is None and not self._failed[i]
        ]
        if len(roots) != 1:
            raise TopologyError(
                f"need exactly one live root, found {len(roots)}"
            )
        neighbors: list[list[int]] = [[] for _ in parents]
        for child, parent in enumerate(parents):
            if parent is None:
                continue
            if not 0 <= parent < len(parents):
                raise TopologyError(f"node {child} has bad parent {parent}")
            if self._failed[child] or self._failed[parent]:
                continue  # edges touching failed nodes simply do not exist
            neighbors[child].append(parent)
            neighbors[parent].append(child)
        # Every live node must be reachable from the live root, otherwise
        # the "new" tree still leaves someone partitioned.
        reachable = {roots[0]}
        frontier = [roots[0]]
        while frontier:
            current = frontier.pop()
            for neighbor in neighbors[current]:
                if neighbor not in reachable:
                    reachable.add(neighbor)
                    frontier.append(neighbor)
        live = {i for i in range(len(parents)) if not self._failed[i]}
        if reachable != live:
            missing = sorted(live - reachable)
            raise TopologyError(f"live nodes {missing} unreachable from the root")
        self.parents = list(parents)
        self.root = roots[0]
        self._neighbors = neighbors
        # Re-advertise local knowledge so the new tree re-converges: every
        # live node re-queues its own holdings.
        for node in self.nodes:
            if self._failed[node.index]:
                continue
            node.readvertise(now)
            if node.outbox:
                self._ensure_flush(node.index, now)

    # ------------------------------------------------------------------
    # event loop
    # ------------------------------------------------------------------
    def _ensure_flush(self, node: int, now: float) -> None:
        if self._flush_scheduled[node]:
            return
        try:
            period = next(self._periods)
        except StopIteration:
            self._periods = iter(
                self._rng.uniform(0.0, self.max_period_s, JITTER_BLOCK).tolist()
            )
            period = next(self._periods)
        when = now + period
        heapq.heappush(self._events, (when, next(self._seq), "flush", node, None))
        self._flush_scheduled[node] = True

    def _advance(self, until: float) -> None:
        events = self._events
        while events and events[0][0] <= until:
            time, _seq, kind, node, payload = heapq.heappop(events)
            self.now = max(self.now, time)
            if kind == "flush":
                self._do_flush(node, time)
            else:
                self._do_deliver(node, payload, time)
        self.now = max(self.now, until)

    def _do_flush(self, node: int, now: float) -> None:
        self._flush_scheduled[node] = False
        if self._failed[node]:
            return
        pending = self.nodes[node].drain_outbox()
        if not pending:
            return
        arrival = now + self.link_latency_s
        for neighbor in self._neighbors[node]:
            blob = b"".join(
                [records for records, excluded in pending if excluded != neighbor]
            )
            if not blob:
                continue
            self.bytes_sent[node] += len(blob)
            self.batches_sent += 1
            heapq.heappush(
                self._events, (arrival, next(self._seq), "deliver", neighbor, (node, blob))
            )

    def _do_deliver(self, node: int, payload: object, now: float) -> None:
        if self._failed[node]:
            self.batches_lost_to_failures += 1
            return
        src, blob = payload  # type: ignore[misc]
        self.nodes[node].apply_batch(blob, src, now)
        self._ensure_flush(node, now)
