"""Property tests for the Plaxton embedding (the paper's four claims)."""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import TopologyError
from repro.common.ids import matching_low_bits, node_id_from_name
from repro.netmodel.topology import GeographicTopology
from repro.plaxton.tree import PlaxtonTree


def make_tree(n_nodes=32, bits_per_digit=1, seed=0):
    rng = np.random.default_rng(seed)
    topology = GeographicTopology(n_nodes, max(2, n_nodes // 8), rng)
    node_ids = [node_id_from_name(f"node-{i}") for i in range(n_nodes)]
    return PlaxtonTree(node_ids, topology, bits_per_digit=bits_per_digit)


@pytest.fixture(scope="module")
def tree():
    return make_tree()


class TestConstruction:
    def test_rejects_empty(self):
        rng = np.random.default_rng(0)
        with pytest.raises(TopologyError):
            PlaxtonTree([], GeographicTopology(1, 1, rng))

    def test_rejects_duplicate_ids(self):
        rng = np.random.default_rng(0)
        topology = GeographicTopology(2, 1, rng)
        with pytest.raises(TopologyError, match="unique"):
            PlaxtonTree([5, 5], topology)

    def test_rejects_size_mismatch(self):
        rng = np.random.default_rng(0)
        topology = GeographicTopology(3, 1, rng)
        with pytest.raises(TopologyError):
            PlaxtonTree([1, 2], topology)

    def test_rejects_bad_digit_width(self):
        rng = np.random.default_rng(0)
        topology = GeographicTopology(2, 1, rng)
        with pytest.raises(TopologyError):
            PlaxtonTree([1, 2], topology, bits_per_digit=0)

    def test_level_zero_parent_exists_for_every_digit_present(self, tree):
        # At level 0 the prefix constraint is empty, so for each digit value
        # that exists among node IDs some parent must be found.
        digits_present = {node.node_id & 1 for node in (tree.node(i) for i in tree.member_indices)}
        for index in tree.member_indices:
            for digit in digits_present:
                assert tree.parent(index, 0, digit) is not None


class TestRootSelection:
    def test_root_is_globally_unique(self, tree):
        object_id = node_id_from_name("object-a")
        roots = {tree.root_for(object_id) for _ in range(3)}
        assert len(roots) == 1

    def test_root_maximizes_low_bit_match(self, tree):
        object_id = node_id_from_name("object-b")
        root = tree.root_for(object_id)
        root_match = matching_low_bits(tree.node(root).node_id, object_id)
        for index in tree.member_indices:
            other = matching_low_bits(tree.node(index).node_id, object_id)
            assert other <= root_match

    @settings(deadline=None, max_examples=15)
    @given(seed=st.integers(0, 10**6))
    def test_load_is_distributed(self, seed):
        """Each node roots ~1/n of objects in expectation (the load claim).

        Suffix-match ownership sizes follow the gaps between random node
        IDs, so the heaviest node can own several times its fair share;
        the property we pin is that ownership is *spread*: no node owns
        more than ~a third of the objects and most nodes own some.
        """
        tree = make_tree(n_nodes=32, seed=3)
        rng = np.random.default_rng(seed)
        object_ids = rng.integers(0, 2**63, size=400)
        counts: dict[int, int] = {}
        for oid in object_ids:
            root = tree.root_for(int(oid))
            counts[root] = counts.get(root, 0) + 1
        assert max(counts.values()) <= 400 / 3
        assert len(counts) >= 32 * 0.6


class TestRouting:
    @settings(deadline=None, max_examples=40)
    @given(obj_seed=st.integers(0, 10**6), start=st.integers(0, 31))
    def test_every_start_converges_to_the_same_root(self, obj_seed, start):
        tree = make_tree(n_nodes=32, seed=1)
        object_id = node_id_from_name(f"obj-{obj_seed}")
        path = tree.route_path(start, object_id)
        assert path[0] == start
        assert path[-1] == tree.root_for(object_id)

    def test_path_has_no_repeats_except_terminal_jump(self):
        tree = make_tree(n_nodes=16, seed=2)
        object_id = node_id_from_name("obj-x")
        path = tree.route_path(0, object_id)
        assert len(path[:-1]) == len(set(path[:-1]))

    def test_path_length_is_logarithmic(self):
        tree = make_tree(n_nodes=64, seed=4)
        for obj in range(30):
            object_id = node_id_from_name(f"o{obj}")
            path = tree.route_path(obj % 64, object_id)
            # 64 nodes, binary digits: ~log2(64)=6 meaningful levels, allow
            # slack for surrogate hops.
            assert len(path) <= 14

    def test_route_from_root_is_trivial(self):
        tree = make_tree(n_nodes=16, seed=5)
        object_id = node_id_from_name("obj-y")
        root = tree.root_for(object_id)
        assert tree.route_path(root, object_id) == [root]

    def test_route_rejects_unknown_start(self, tree):
        with pytest.raises(TopologyError):
            tree.route_path(999, 123)


class TestLocality:
    def test_parent_distance_grows_with_level(self):
        """Near the leaves parents are nearby; near the root they are far
        (the paper's locality claim).  Compare the first level against the
        last level with data."""
        tree = make_tree(n_nodes=64, seed=6)
        by_level = tree.parent_distance_by_level()
        populated = [d for d in by_level if d > 0]
        assert len(populated) >= 2
        assert populated[0] < populated[-1]


class TestKaryTrees:
    def test_wider_digits_build_flatter_tables(self):
        binary = make_tree(n_nodes=32, bits_per_digit=1, seed=7)
        hexary = make_tree(n_nodes=32, bits_per_digit=4, seed=7)
        binary_levels = max(len(binary.node(i).parents) for i in binary.member_indices)
        hexary_levels = max(len(hexary.node(i).parents) for i in hexary.member_indices)
        assert hexary_levels < binary_levels

    @settings(deadline=None, max_examples=20)
    @given(obj_seed=st.integers(0, 10**5), start=st.integers(0, 31))
    def test_kary_routing_still_converges(self, obj_seed, start):
        tree = make_tree(n_nodes=32, bits_per_digit=4, seed=8)
        object_id = node_id_from_name(f"kobj-{obj_seed}")
        path = tree.route_path(start, object_id)
        assert path[-1] == tree.root_for(object_id)


class TestMembership:
    def test_remove_node_keeps_indices_stable(self):
        tree = make_tree(n_nodes=16, seed=9)
        tree.remove_node(5)
        assert 5 not in tree.member_indices
        assert len(tree) == 15
        # Survivors keep their indices and routing still works.
        object_id = node_id_from_name("obj-z")
        path = tree.route_path(0, object_id)
        assert 5 not in path

    def test_remove_unknown_node(self):
        tree = make_tree(n_nodes=8, seed=10)
        with pytest.raises(TopologyError):
            tree.remove_node(99)

    def test_cannot_remove_last_node(self):
        rng = np.random.default_rng(0)
        topology = GeographicTopology(1, 1, rng)
        tree = PlaxtonTree([123], topology)
        with pytest.raises(TopologyError):
            tree.remove_node(0)

    def test_add_node_back(self):
        tree = make_tree(n_nodes=16, seed=11)
        node_id = tree.node(5).node_id
        tree.remove_node(5)
        tree.add_node(5, node_id)
        assert 5 in tree.member_indices

    def test_add_duplicate_index_rejected(self):
        tree = make_tree(n_nodes=8, seed=12)
        with pytest.raises(TopologyError):
            tree.add_node(3, 12345)

    def test_add_duplicate_id_rejected(self):
        tree = make_tree(n_nodes=8, seed=13)
        existing_id = tree.node(0).node_id
        tree.remove_node(7)
        with pytest.raises(TopologyError, match="unique"):
            tree.add_node(7, existing_id)


def _table_digest(tree) -> str:
    snapshot = tree.parent_table_snapshot()
    return hashlib.sha256(json.dumps(snapshot, sort_keys=True).encode()).hexdigest()


#: ``(bits_per_digit, n_nodes)`` -> digests of ``parent_table_snapshot()``
#: as built, then after removing node 5 (the tree seed is
#: ``100 * bits + n``).  Any change to how the tables are built must keep
#: every nearest-parent choice, ties included.
PARENT_TABLE_DIGESTS = {
    (1, 16): (
        "22cb3998b6c0713044efdd47d9465dad036af7ca6348a4c2a3cc1fc4343a8347",
        "5566334d5ac39328f9bb3234cfcc0fc8d7563fdd4f8175be1150a7c58001d376",
    ),
    (1, 64): (
        "c1fe63626d17d8aabc54731bfbd989b0d66eaf5f58f6210c8d73255280242b5f",
        "6fa5029155fc76b6597e45960472193fac8305997b1111e8e9ea9eee50e3866c",
    ),
    (2, 16): (
        "2ca214c2ada07e6590f5a7e1f786de9313fe66d7f5bc8e9a1475cf1589ff0201",
        "82d1a436bb5f264a131abc7647e9344994fbda6d319b64f3129c0777779babb8",
    ),
    (2, 64): (
        "9e70009faf55da33b8b93e3b7e7c634aa5526de3b42460b6b183b7c8bed2ce2b",
        "cdc963dfa8ccd056f70ce45b487b4a813815acf0f068c59f43d64d30ec58cd89",
    ),
    (4, 16): (
        "37499940ab59c5dae43af733bfba9fee9b60c06d947d720de5895afa179606eb",
        "ce719d4af5aeeeb55a3adcf5a999c144238fe5d935682a3bc7a1dab754013b4a",
    ),
    (4, 64): (
        "cdadeddda7733f113220a0471182655bd39a832dd735fb91fead48782fc7922a",
        "ea8b18da255ae82b9135a37402dab0aef0313fc6b1f827a51b92b800adf3fb3d",
    ),
}


@pytest.mark.parametrize("bits, n_nodes", sorted(PARENT_TABLE_DIGESTS))
def test_parent_tables_pinned(bits, n_nodes):
    tree = make_tree(n_nodes=n_nodes, bits_per_digit=bits, seed=100 * bits + n_nodes)
    built, after_removal = PARENT_TABLE_DIGESTS[(bits, n_nodes)]
    assert _table_digest(tree) == built
    tree.remove_node(5)
    assert _table_digest(tree) == after_removal
