"""The randomized tree embedding.

Terminology follows the paper's Figure 7: a node at level ``i`` of an
object's virtual tree has an ID matching the object's ID in at least ``i``
low-order digits (each digit is ``bits_per_digit`` bits; the paper uses
binary trees in the illustration and "``log2(k)`` bits at a time" for
k-ary hierarchies).  To construct level ``i+1``, each node finds, for every
possible value ``d`` of digit ``i``, the *nearest* node whose ID matches
its own low ``i`` digits and has digit ``i`` equal to ``d`` -- one of these
candidates may be the node itself (the parent that "matches in that bit").

Routing an update for object ``o`` from a node at level ``i`` forwards to
the level-``(i+1)`` parent whose digit ``i`` equals ``o``'s digit ``i``.
When no node in the system has the required prefix, deterministic
surrogate tie-breaking takes over, and every start node converges to the
same root.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.errors import TopologyError
from repro.common.ids import ID_BITS, low_digit, matching_low_bits
from repro.netmodel.topology import GeographicTopology


@dataclass
class PlaxtonNode:
    """One participant: its index, its 64-bit ID, and its parent tables.

    ``parents[i][d]`` is the nearest node whose ID matches this node's low
    ``i`` digits and whose digit ``i`` is ``d`` -- or ``None`` when no such
    node exists in the system.
    """

    index: int
    node_id: int
    parents: list[list[int | None]] = field(default_factory=list)


class PlaxtonTree:
    """The full embedding over a set of nodes with known distances.

    Args:
        node_ids: 64-bit pseudo-random node IDs, indexed by node.
        topology: Distances used to pick the *nearest* eligible parent.
        bits_per_digit: Digit width; 1 gives the paper's binary trees,
            larger values give the flatter k-ary hierarchies of section
            3.1.3's closing remark.

    Node *indices* are stable identities: removing a node leaves every
    other node's index unchanged (the topology keeps its positions).
    """

    def __init__(
        self,
        node_ids: list[int],
        topology: GeographicTopology,
        bits_per_digit: int = 1,
    ) -> None:
        if not node_ids:
            raise TopologyError("Plaxton tree needs at least one node")
        if len(set(node_ids)) != len(node_ids):
            raise TopologyError("node IDs must be unique")
        if topology.n_nodes != len(node_ids):
            raise TopologyError(
                f"topology has {topology.n_nodes} nodes, got {len(node_ids)} IDs"
            )
        if bits_per_digit < 1:
            raise TopologyError(f"bits_per_digit must be >= 1, got {bits_per_digit}")
        self.bits_per_digit = bits_per_digit
        self.digit_values = 1 << bits_per_digit
        self.max_levels = ID_BITS // bits_per_digit
        self.topology = topology
        self._members: dict[int, PlaxtonNode] = {
            i: PlaxtonNode(index=i, node_id=nid) for i, nid in enumerate(node_ids)
        }
        self._rebuild_all()

    # ------------------------------------------------------------------
    # membership inspection
    # ------------------------------------------------------------------
    @property
    def member_indices(self) -> list[int]:
        """Indices of live nodes, ascending."""
        return sorted(self._members)

    def node(self, index: int) -> PlaxtonNode:
        """The live node with the given index."""
        try:
            return self._members[index]
        except KeyError:
            raise TopologyError(f"no such node {index}") from None

    def __len__(self) -> int:
        return len(self._members)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _build_parent_tables(self, node: PlaxtonNode) -> None:
        """Fill ``node.parents``, one row per level.

        ``matching`` holds the members that share the node's low ``level``
        digits.  One pass buckets it by digit ``level`` into the row's
        candidates, and the bucket of the node's own digit is the next
        level's ``matching``.  The node always matches itself, so every
        level has a candidate.
        """
        node.parents = []
        matching = list(self._members.values())
        for level in range(self.max_levels):
            buckets: list[list[PlaxtonNode]] = [[] for _ in range(self.digit_values)]
            for other in matching:
                buckets[low_digit(other.node_id, level, self.bits_per_digit)].append(other)
            node.parents.append([
                self.topology.nearest(node.index, [o.index for o in bucket])
                if bucket else None
                for bucket in buckets
            ])
            matching = buckets[low_digit(node.node_id, level, self.bits_per_digit)]

    def _rebuild_all(self) -> None:
        for node in self._members.values():
            self._build_parent_tables(node)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def parent(self, node: int, level: int, digit: int) -> int | None:
        """The node's level-``level+1`` parent for digit value ``digit``."""
        rows = self.node(node).parents
        if level >= len(rows):
            return None
        return rows[level][digit]

    def root_for(self, object_id: int) -> int:
        """The unique root node of ``object_id``'s virtual tree.

        The root is the node whose ID matches the object's ID in the most
        low-order bits; ties break by surrogate digit order then node ID,
        so the choice is globally consistent (every route converges to it).
        """
        best = max(
            self._members.values(),
            key=lambda n: (
                matching_low_bits(n.node_id, object_id),
                -self._surrogate_rank(n.node_id, object_id),
                -n.node_id,
            ),
        )
        return best.index

    def _surrogate_rank(self, node_id: int, object_id: int) -> int:
        """Tie-break rank: cyclic distance of the first differing digit.

        When several nodes match the object in equally many digits, the
        surrogate rule prefers the node whose next digit is closest above
        the object's next digit (mod the digit alphabet) -- the standard
        deterministic choice that keeps routing loop-free.
        """
        matched = matching_low_bits(node_id, object_id) // self.bits_per_digit
        if matched >= self.max_levels:
            return 0
        want = low_digit(object_id, matched, self.bits_per_digit)
        have = low_digit(node_id, matched, self.bits_per_digit)
        return (have - want) % self.digit_values

    def route_path(self, start: int, object_id: int) -> list[int]:
        """Nodes visited routing an update from ``start`` to the object root.

        Each hop tries to extend the low-order prefix shared with the
        object ID; when no parent can extend it, the walk closes at the
        global root (which by construction holds the maximal prefix).  The
        returned path starts with ``start`` and ends with
        ``root_for(object_id)``.
        """
        root = self.root_for(object_id)
        current = self.node(start)  # validates `start`
        path = [start]
        visited = {start}
        while current.index != root:
            level = matching_low_bits(current.node_id, object_id) // self.bits_per_digit
            next_index = self._next_hop(current, object_id, level)
            if next_index is None or next_index in visited:
                path.append(root)
                break
            path.append(next_index)
            visited.add(next_index)
            current = self.node(next_index)
        return path

    def _next_hop(self, current: PlaxtonNode, object_id: int, level: int) -> int | None:
        want = low_digit(object_id, level, self.bits_per_digit)
        here_match = matching_low_bits(current.node_id, object_id)
        for offset in range(self.digit_values):
            digit = (want + offset) % self.digit_values
            candidate = self.parent(current.index, level, digit)
            if candidate is None or candidate == current.index:
                continue
            if offset == 0:
                return candidate
            # Surrogate digit: only useful if it strictly improves the match.
            if matching_low_bits(self.node(candidate).node_id, object_id) > here_match:
                return candidate
        return None

    # ------------------------------------------------------------------
    # membership changes
    # ------------------------------------------------------------------
    def remove_node(self, index: int) -> None:
        """Remove a node; survivors' parent tables are rebuilt.

        The paper's claim is that removal "disturbs very little of the
        previous configuration";
        :func:`repro.plaxton.membership.remove_node_report` quantifies it.
        """
        if index not in self._members:
            raise TopologyError(f"no such node {index}")
        if len(self._members) == 1:
            raise TopologyError("cannot remove the last node")
        del self._members[index]
        self._rebuild_all()

    def add_node(self, index: int, node_id: int) -> None:
        """(Re-)add a node with the given stable index and ID."""
        if index in self._members:
            raise TopologyError(f"node {index} already present")
        if not 0 <= index < self.topology.n_nodes:
            raise TopologyError(f"index {index} outside the topology")
        if any(n.node_id == node_id for n in self._members.values()):
            raise TopologyError("node IDs must be unique")
        self._members[index] = PlaxtonNode(index=index, node_id=node_id)
        self._rebuild_all()

    def parent_table_snapshot(self) -> dict[int, list[list[int | None]]]:
        """Deep copy of every node's parent table (for disturbance metrics)."""
        return {
            n.index: [list(row) for row in n.parents] for n in self._members.values()
        }

    def parent_distance_by_level(self) -> list[float]:
        """Mean distance from each node to its chosen parents, per level.

        The paper's *locality* property: near the leaves parents are close,
        near the root they are farther.  Self-parents (distance 0) are
        excluded so the statistic reflects actual network hops.
        """
        sums: list[float] = []
        counts: list[int] = []
        for node in self._members.values():
            for level, row in enumerate(node.parents):
                for parent in row:
                    if parent is None or parent == node.index:
                        continue
                    while len(sums) <= level:
                        sums.append(0.0)
                        counts.append(0)
                    sums[level] += self.topology.distance(node.index, parent)
                    counts[level] += 1
        return [s / c if c else 0.0 for s, c in zip(sums, counts)]
