"""Tests for the per-proxy hint module."""

from __future__ import annotations

from repro.hints.node import HintNode
from repro.hints.records import MachineId
from repro.hints.wire import HintAction, HintUpdate


class TestPrototypeCommands:
    def test_inform_records_locally_and_queues(self):
        node = HintNode(index=3, hint_capacity_bytes=1024)
        node.inform(url_hash=42, now=1.0)
        assert node.find_nearest(42).node == 3
        assert len(node.outbox) == 1
        record, exclude_neighbor = node.outbox[0]
        assert HintUpdate.unpack(record).action is HintAction.INFORM
        assert exclude_neighbor is None

    def test_invalidate_drops_and_queues(self):
        node = HintNode(index=3, hint_capacity_bytes=1024)
        node.inform(42, now=1.0)
        node.invalidate(42, now=2.0)
        assert node.find_nearest(42) is None
        record, _exclude_neighbor = node.outbox[1]
        assert HintUpdate.unpack(record).action is HintAction.INVALIDATE

    def test_first_learned_timestamps(self):
        node = HintNode(index=0, hint_capacity_bytes=1024)
        node.inform(42, now=5.0)
        node.inform(42, now=9.0)  # re-inform keeps the first time
        assert node.first_learned[42] == 5.0


class TestReceivedUpdates:
    def test_apply_inform(self):
        node = HintNode(index=0, hint_capacity_bytes=1024)
        update = HintUpdate(
            action=HintAction.INFORM, object_id=42, machine=MachineId.for_node(9)
        )
        node.apply_update(update, from_neighbor=1, now=3.0)
        assert node.find_nearest(42).node == 9
        assert node.first_learned[42] == 3.0
        # Queued for forwarding, excluding the arrival edge.
        _record, exclude_neighbor = node.outbox[0]
        assert exclude_neighbor == 1

    def test_apply_invalidate_only_hits_matching_machine(self):
        node = HintNode(index=0, hint_capacity_bytes=1024)
        node.apply_update(
            HintUpdate(HintAction.INFORM, 42, MachineId.for_node(9)),
            from_neighbor=1, now=0.0,
        )
        # An invalidate for a *different* holder must not clobber the hint.
        node.apply_update(
            HintUpdate(HintAction.INVALIDATE, 42, MachineId.for_node(4)),
            from_neighbor=1, now=1.0,
        )
        assert node.find_nearest(42).node == 9
        node.apply_update(
            HintUpdate(HintAction.INVALIDATE, 42, MachineId.for_node(9)),
            from_neighbor=1, now=2.0,
        )
        assert node.find_nearest(42) is None

    def test_drain_outbox_empties(self):
        node = HintNode(index=0, hint_capacity_bytes=1024)
        node.inform(1, now=0.0)
        node.inform(2, now=0.0)
        drained = node.drain_outbox()
        assert len(drained) == 2
        assert node.outbox == []

    def test_counters(self):
        node = HintNode(index=0, hint_capacity_bytes=1024)
        node.inform(1, now=0.0)
        node.apply_update(
            HintUpdate(HintAction.INFORM, 2, MachineId.for_node(5)),
            from_neighbor=1, now=0.0,
        )
        assert node.updates_originated == 1
        assert node.updates_applied == 1
