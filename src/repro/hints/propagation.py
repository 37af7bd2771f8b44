"""Hierarchical hint propagation with subtree filtering (Table 5).

Paper section 3.1.2: "When a node in the metadata hierarchy learns about a
new copy of data from a child ... it propagates that information to its
parent only if the new copy is the first copy stored in the subtree rooted
at the parent. ... Similarly, when a node learns about a new copy of data
from a parent, it propagates that knowledge to its children if none of its
children had previously informed it of a copy."

:class:`HintPropagationTree` implements that protocol over an explicit
metadata tree and counts the messages each node receives, which is what
Table 5 compares against :class:`CentralizedDirectoryProtocol` (every data
cache sends every update to one directory).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.errors import TopologyError


@dataclass
class _MetadataNode:
    """One node of the metadata tree and its protocol state."""

    index: int
    parent: int | None
    children: list[int] = field(default_factory=list)
    # object -> set of leaf caches known (from below) to hold a copy
    # within this node's subtree.
    subtree_copies: dict[int, set[int]] = field(default_factory=dict)
    # object -> True if the parent told us a copy exists outside our subtree.
    outside_copy: set[int] = field(default_factory=set)
    messages_received: int = 0


class HintPropagationTree:
    """A metadata hierarchy running the paper's filtering protocol.

    The tree is described by a parent vector: ``parents[i]`` is the parent
    of node ``i``, with ``None`` for the root.  Leaves are the nodes with
    no children; each leaf fronts one data cache.

    >>> tree = HintPropagationTree.balanced(branching=8, leaves=64)
    >>> tree.inform(leaf=3, object_id=42)
    >>> tree.root_messages
    1
    """

    def __init__(self, parents: list[int | None]) -> None:
        if not parents:
            raise TopologyError("metadata tree needs at least one node")
        roots = [i for i, p in enumerate(parents) if p is None]
        if len(roots) != 1:
            raise TopologyError(f"tree must have exactly one root, found {len(roots)}")
        self._nodes = [_MetadataNode(index=i, parent=p) for i, p in enumerate(parents)]
        for node in self._nodes:
            if node.parent is not None:
                if not 0 <= node.parent < len(parents):
                    raise TopologyError(f"node {node.index} has bad parent {node.parent}")
                self._nodes[node.parent].children.append(node.index)
        self.root = roots[0]
        self._check_acyclic()
        self.leaves = [n.index for n in self._nodes if not n.children]
        self.total_messages = 0

    @classmethod
    def balanced(cls, branching: int, leaves: int) -> "HintPropagationTree":
        """Build a balanced tree with the given branching over ``leaves``.

        Interior levels are created until a single root covers all leaves;
        with ``branching=8, leaves=64`` this is the paper's 64-L1 / 8-L2 /
        1-L3 metadata hierarchy.
        """
        if branching < 2:
            raise TopologyError(f"branching must be >= 2, got {branching}")
        if leaves < 1:
            raise TopologyError(f"need at least one leaf, got {leaves}")
        # Build bottom-up: level 0 = leaves.
        levels: list[list[int]] = []
        parents: list[int | None] = []
        current = list(range(leaves))
        parents.extend([None] * leaves)  # placeholders, filled below
        levels.append(current)
        next_index = leaves
        while len(current) > 1:
            above: list[int] = []
            for group_start in range(0, len(current), branching):
                group = current[group_start : group_start + branching]
                parents.append(None)  # the new interior node, parent set later
                for child in group:
                    parents[child] = next_index
                above.append(next_index)
                next_index += 1
            current = above
            levels.append(current)
        return cls(parents)

    # ------------------------------------------------------------------
    # protocol
    # ------------------------------------------------------------------
    @property
    def root_messages(self) -> int:
        """Messages received by the root (Table 5's figure of merit)."""
        return self._nodes[self.root].messages_received

    def messages_at(self, node: int) -> int:
        """Messages received by an arbitrary metadata node."""
        return self._nodes[node].messages_received

    def inform(self, leaf: int, object_id: int) -> None:
        """A leaf's data cache stored a new copy of ``object_id``."""
        self._check_leaf(leaf)
        self._propagate_add(node=leaf, object_id=object_id, holder=leaf, from_child=None)

    def retract(self, leaf: int, object_id: int) -> None:
        """A leaf's data cache dropped its copy of ``object_id``."""
        self._check_leaf(leaf)
        self._propagate_remove(node=leaf, object_id=object_id, holder=leaf)

    def known_in_subtree(self, node: int, object_id: int) -> bool:
        """Does ``node`` know of a copy within its subtree?"""
        return bool(self._nodes[node].subtree_copies.get(object_id))

    def parent_vector(self) -> list[int | None]:
        """The tree as a parent vector (``None`` marks the root).

        Public so other components -- :class:`repro.hints.cluster.HintCluster`,
        the failure-drill example -- can build over the same shape without
        reaching into internals.
        """
        return [node.parent for node in self._nodes]

    # ------------------------------------------------------------------
    # propagation internals
    # ------------------------------------------------------------------
    def _propagate_add(
        self, node: int, object_id: int, holder: int, from_child: int | None
    ) -> None:
        meta = self._nodes[node]
        if from_child is not None:
            meta.messages_received += 1
            self.total_messages += 1
        copies = meta.subtree_copies.setdefault(object_id, set())
        first_in_subtree = not copies
        copies.add(holder)
        if not first_in_subtree:
            # The parent was already told of a copy in this subtree:
            # terminate the upward propagation (the filtering step).
            return
        # First copy below this node: tell the parent, and tell the other
        # children if none of them had previously informed us of a copy
        # (i.e. this is news to their subtrees).
        if meta.parent is not None:
            self._propagate_add(meta.parent, object_id, holder, from_child=node)
        self._push_down(node, object_id, holder, exclude_child=from_child)

    def _push_down(
        self, node: int, object_id: int, holder: int, exclude_child: int | None
    ) -> None:
        """Tell descendant hint caches that a copy now exists at ``holder``."""
        meta = self._nodes[node]
        for child in meta.children:
            if child == exclude_child:
                continue
            child_meta = self._nodes[child]
            child_meta.messages_received += 1
            self.total_messages += 1
            if object_id in child_meta.outside_copy:
                continue  # already knew of an outside copy; stop here
            child_meta.outside_copy.add(object_id)
            self._push_down(child, object_id, holder, exclude_child=None)

    def _propagate_remove(self, node: int, object_id: int, holder: int) -> None:
        meta = self._nodes[node]
        copies = meta.subtree_copies.get(object_id)
        if copies is None or holder not in copies:
            return
        copies.discard(holder)
        if copies:
            return  # subtree still has a copy; the parent need not know
        del meta.subtree_copies[object_id]
        if meta.parent is not None:
            parent = self._nodes[meta.parent]
            parent.messages_received += 1
            self.total_messages += 1
            self._propagate_remove(meta.parent, object_id, holder)

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------
    def _check_leaf(self, leaf: int) -> None:
        if not 0 <= leaf < len(self._nodes):
            raise TopologyError(f"no such node {leaf}")
        if self._nodes[leaf].children:
            raise TopologyError(f"node {leaf} is not a leaf")

    def _check_acyclic(self) -> None:
        for node in self._nodes:
            seen = set()
            cursor: int | None = node.index
            while cursor is not None:
                if cursor in seen:
                    raise TopologyError(f"cycle through node {cursor}")
                seen.add(cursor)
                cursor = self._nodes[cursor].parent


class CentralizedDirectoryProtocol:
    """The strawman Table 5 compares against: one directory hears everything."""

    def __init__(self) -> None:
        self.messages_received = 0

    def inform(self, leaf: int, object_id: int) -> None:
        """Every new copy is reported to the central directory."""
        self.messages_received += 1

    def retract(self, leaf: int, object_id: int) -> None:
        """Every drop is reported to the central directory."""
        self.messages_received += 1
