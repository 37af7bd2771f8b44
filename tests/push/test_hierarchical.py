"""Tests for hierarchical push on miss."""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro.hierarchy.topology import HierarchyTopology
from repro.push.hierarchical import HierarchicalPushOnMiss

TOPOLOGY = HierarchyTopology(clients_per_l1=1, l1_per_l2=4, n_l2=3)  # 12 L1s


def targets(policy, requester, source, lca):
    return policy.on_remote_fetch(
        now=0.0, size=100, requester_l1=requester,
        source_l1=source, lca_level=lca,
    )


class TestEligibleSubtrees:
    def test_l3_fetch_push_1_hits_each_l2_group_once(self):
        policy = HierarchicalPushOnMiss(TOPOLOGY, "push-1", seed=0)
        chosen = targets(policy, requester=0, source=8, lca=3)
        groups = {TOPOLOGY.l2_of_l1(node) for node in chosen}
        assert len(chosen) == len(groups) == 3

    def test_l3_fetch_push_all_hits_everyone_else(self):
        policy = HierarchicalPushOnMiss(TOPOLOGY, "push-all", seed=0)
        chosen = targets(policy, requester=0, source=8, lca=3)
        assert sorted(chosen) == [n for n in range(12) if n not in (0, 8)]

    def test_l3_fetch_push_half_takes_half_per_group(self):
        policy = HierarchicalPushOnMiss(TOPOLOGY, "push-half", seed=0)
        chosen = targets(policy, requester=0, source=8, lca=3)
        for group in range(3):
            members = set(TOPOLOGY.l1_nodes_of_l2(group)) - {0, 8}
            in_group = [n for n in chosen if TOPOLOGY.l2_of_l1(n) == group]
            # "Half" rounds up: 3 eligible nodes -> 2 targets, 4 -> 2.
            assert len(in_group) == (len(members) + 1) // 2

    def test_push_half_rounds_up_in_odd_groups(self):
        # Regression for the floor-division bug: a 3-node subtree must
        # push to 2 caches, not 1.
        policy = HierarchicalPushOnMiss(TOPOLOGY, "push-half", seed=0)
        chosen = targets(policy, requester=0, source=8, lca=3)
        for group in (0, 2):  # the groups that lose a member to exclusion
            members = set(TOPOLOGY.l1_nodes_of_l2(group)) - {0, 8}
            assert len(members) == 3
            in_group = [n for n in chosen if TOPOLOGY.l2_of_l1(n) == group]
            assert len(in_group) == 2

    def test_l2_fetch_pushes_to_sibling_caches(self):
        # Level-1 subtrees are single caches: every mode pushes to all
        # siblings under the shared L2 parent (Figure 9's object B).
        for mode in ("push-1", "push-half", "push-all"):
            policy = HierarchicalPushOnMiss(TOPOLOGY, mode, seed=1)
            chosen = targets(policy, requester=0, source=1, lca=2)
            assert sorted(chosen) == [2, 3]

    def test_l1_fetch_pushes_nothing(self):
        policy = HierarchicalPushOnMiss(TOPOLOGY, "push-all", seed=0)
        assert targets(policy, requester=0, source=0, lca=1) == []

    def test_requester_and_source_never_targeted(self):
        policy = HierarchicalPushOnMiss(TOPOLOGY, "push-all", seed=0)
        chosen = targets(policy, requester=5, source=9, lca=3)
        assert 5 not in chosen
        assert 9 not in chosen


class TestDeterminism:
    def test_seeded_choices_reproducible(self):
        a = HierarchicalPushOnMiss(TOPOLOGY, "push-1", seed=3)
        b = HierarchicalPushOnMiss(TOPOLOGY, "push-1", seed=3)
        assert targets(a, 0, 8, 3) == targets(b, 0, 8, 3)

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            HierarchicalPushOnMiss(TOPOLOGY, "push-two")

    def test_name_is_mode(self):
        assert HierarchicalPushOnMiss(TOPOLOGY, "push-half").name == "push-half"


class TestTargetStream:
    """The exact targets every mode picks, and so its RNG stream.

    Both engines share one policy object, so the fast/reference parity
    matrix cannot see a change to the draws; these digests can.  The
    fetches are seeded ``(requester, source)`` pairs of distinct L1s at
    their real distance class.  ``l1_per_l2=2`` leaves single-member
    subtrees once the requester and source are excluded (they draw
    nothing), and there a half of two is one: push-half picks exactly
    what push-1 picks.
    """

    FETCHES = 5_000
    DIGESTS = {
        ("8x8", "push-1"): (
            "4a3b8e6150e9f81783d724a64eef25f8"
            "080c47d5de83de981cfc8d7c6e303c29"
        ),
        ("8x8", "push-half"): (
            "4e3b8f343d06bb1d122d78addcdd38ed"
            "239b00e9dd6085f91d94c77ac18b9d15"
        ),
        ("8x8", "push-all"): (
            "f7f70289526fea275031a327600952e8"
            "63c2e7a65c46ea137f0c27a36be169d4"
        ),
        ("2x8", "push-1"): (
            "dbb10e5523f4e45b5eab652933fe6e6f"
            "65422ccc34adc6c3ff875c084066868f"
        ),
        ("2x8", "push-half"): (
            "dbb10e5523f4e45b5eab652933fe6e6f"
            "65422ccc34adc6c3ff875c084066868f"
        ),
        ("2x8", "push-all"): (
            "e81e96ed05074b2806b7715eca4cb9a9"
            "a5a36131675f605814c92a7c9e54e225"
        ),
    }
    TOPOLOGIES = {
        "8x8": HierarchyTopology(clients_per_l1=1, l1_per_l2=8, n_l2=8),
        "2x8": HierarchyTopology(clients_per_l1=1, l1_per_l2=2, n_l2=8),
    }

    @pytest.mark.parametrize("shape, mode", sorted(DIGESTS))
    def test_target_sequences_pinned(self, shape, mode):
        topology = self.TOPOLOGIES[shape]
        policy = HierarchicalPushOnMiss(topology, mode, seed=11)
        fetches = np.random.default_rng(2024)
        sequences = []
        for _ in range(self.FETCHES):
            requester = int(fetches.integers(topology.n_l1))
            source = int(fetches.integers(topology.n_l1 - 1))
            source += source >= requester
            lca = topology.lca_level(requester, source)
            sequences.append(targets(policy, requester, source, lca))
        digest = hashlib.sha256(json.dumps(sequences).encode()).hexdigest()
        assert digest == self.DIGESTS[(shape, mode)]
