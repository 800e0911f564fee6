"""Unit tests for the block-oriented B+tree."""

import pytest

from repro.storage.btree import BTree, BTreeConfig


def make_tree(order=4, items=()):
    tree = BTree(BTreeConfig(order=order))
    for key, value in items:
        tree.insert(key, value)
    return tree


class TestConfig:
    def test_order_bounds(self):
        with pytest.raises(ValueError):
            BTreeConfig(order=2)

    def test_for_block(self):
        cfg = BTreeConfig.for_block(4096)
        assert cfg.order == 256
        assert BTreeConfig.for_block(32).order == 3
        with pytest.raises(ValueError):
            BTreeConfig.for_block(0)


class TestBasics:
    def test_empty(self):
        tree = make_tree()
        assert len(tree) == 0
        assert tree.get(1) is None
        assert 1 not in tree
        assert list(tree.items()) == []
        assert tree.height == 1

    def test_insert_and_get(self):
        tree = make_tree(items=[(5, "a"), (1, "b"), (9, "c")])
        assert tree.get(5) == "a"
        assert tree.get(1) == "b"
        assert tree.get(9) == "c"
        assert tree.get(7, "missing") == "missing"
        assert len(tree) == 3

    def test_overwrite(self):
        tree = make_tree(items=[(5, "a")])
        tree.insert(5, "z")
        assert tree.get(5) == "z"
        assert len(tree) == 1

    def test_items_sorted(self):
        keys = [7, 1, 9, 3, 5, 2, 8]
        tree = make_tree(items=[(k, k * 10) for k in keys])
        assert [k for k, _ in tree.items()] == sorted(keys)
        assert [v for _, v in tree.items()] == [
            k * 10 for k in sorted(keys)
        ]


class TestSplitting:
    def test_height_grows_with_inserts(self):
        tree = make_tree(order=3)
        for k in range(50):
            tree.insert(k, k)
        assert tree.height >= 3
        tree.check_invariants()

    def test_all_keys_reachable_after_splits(self):
        tree = make_tree(order=4)
        keys = list(range(0, 500, 3))
        for k in reversed(keys):
            tree.insert(k, -k)
        for k in keys:
            assert tree.get(k) == -k
        tree.check_invariants()

    def test_bigger_order_means_shorter_tree(self):
        small = make_tree(order=4, items=[(k, k) for k in range(300)])
        large = make_tree(order=64, items=[(k, k) for k in range(300)])
        assert large.height < small.height


class TestRange:
    @pytest.fixture
    def tree(self):
        return make_tree(order=4, items=[(k, k) for k in range(0, 100, 5)])

    def test_inclusive_range(self, tree):
        assert [k for k, _ in tree.range(10, 30)] == [10, 15, 20, 25, 30]

    def test_range_between_keys(self, tree):
        assert [k for k, _ in tree.range(11, 14)] == []

    def test_range_spanning_leaves(self, tree):
        assert [k for k, _ in tree.range(0, 95)] == list(range(0, 100, 5))

    def test_empty_range(self, tree):
        assert list(tree.range(50, 40)) == []


class TestDelete:
    def test_delete_present_and_absent(self):
        tree = make_tree(items=[(1, "a"), (2, "b")])
        assert tree.delete(1)
        assert not tree.delete(1)
        assert tree.get(1) is None
        assert len(tree) == 1

    def test_delete_everything(self):
        tree = make_tree(order=4)
        keys = list(range(200))
        for k in keys:
            tree.insert(k, k)
        for k in keys:
            assert tree.delete(k)
            tree.check_invariants()
        assert len(tree) == 0
        assert tree.height == 1

    def test_delete_shrinks_height(self):
        tree = make_tree(order=3)
        for k in range(100):
            tree.insert(k, k)
        tall = tree.height
        for k in range(95):
            tree.delete(k)
        assert tree.height < tall
        tree.check_invariants()

    def test_interleaved_insert_delete(self):
        tree = make_tree(order=4)
        reference = {}
        for i in range(400):
            key = (i * 37) % 97
            if i % 3 == 2:
                assert tree.delete(key) == (key in reference)
                reference.pop(key, None)
            else:
                tree.insert(key, i)
                reference[key] = i
            tree.check_invariants()
        assert dict(tree.items()) == reference


class TestCostMetrics:
    def test_lookup_cost(self):
        tree = make_tree(order=4, items=[(k, k) for k in range(300)])
        assert tree.lookup_cost_blocks(root_cached=True) == tree.height - 1
        assert tree.lookup_cost_blocks(root_cached=False) == tree.height

    def test_node_count_and_occupancy(self):
        tree = make_tree(order=4, items=[(k, k) for k in range(100)])
        assert tree.node_count > 25  # 100 keys at order 4
        assert 0.2 < tree.occupancy() <= 1.0
