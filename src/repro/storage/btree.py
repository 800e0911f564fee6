"""A block-oriented B+tree: the paper's word → list-location mapping.

Traditional systems in the paper's introduction "built a B-tree that maps
each word to the locations of its list on disk", and §2 allows ``h(w)`` to
be "a hash function or a tree search".  Cutting & Pedersen (related work)
organize the vocabulary in a B-tree outright.  This module provides that
substrate: a B+tree over integer keys with

* a fanout derived from a disk block size and per-entry byte cost, so tree
  height translates directly into lookup I/O cost;
* insert / get / delete (with borrow-and-merge rebalancing) / ascending
  range scans;
* node accounting (height, node count, occupancy) for the directory-cost
  extension benchmark.

All data lives in leaves; internal nodes route.  Keys are arbitrary
Python ints (word ids); values are arbitrary objects (bucket numbers or
chunk-pointer lists).
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Any, Iterator


#: Bytes one key/pointer entry takes in a node (the directory's own
#: ``directory_entry_bytes`` default).
ENTRY_BYTES = 16


@dataclass(frozen=True)
class BTreeConfig:
    """Geometry of the tree.

    ``order`` is the maximum number of keys per node; when built from a
    block size, ``order = block_size // ENTRY_BYTES`` (at least 3).
    """

    order: int = 64

    def __post_init__(self) -> None:
        if self.order < 3:
            raise ValueError("order must be >= 3")

    @classmethod
    def for_block(cls, block_size: int) -> "BTreeConfig":
        if block_size <= 0:
            raise ValueError("block_size must be > 0")
        return cls(order=max(3, block_size // ENTRY_BYTES))


class _Node:
    __slots__ = ("keys", "children", "values", "next_leaf")

    def __init__(self, leaf: bool) -> None:
        self.keys: list[int] = []
        self.children: list[_Node] | None = None if leaf else []
        self.values: list[Any] | None = [] if leaf else None
        self.next_leaf: "_Node | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.values is not None


class BTree:
    """B+tree over integer keys."""

    def __init__(self, config: BTreeConfig | None = None) -> None:
        self.config = config or BTreeConfig()
        self._root: _Node = _Node(leaf=True)
        self._size = 0
        self._height = 1

    # -- sizing -----------------------------------------------------------

    def __len__(self) -> int:
        return self._size

    @property
    def height(self) -> int:
        """Levels from root to leaf, inclusive (1 for a lone leaf)."""
        return self._height

    @property
    def node_count(self) -> int:
        def count(node: _Node) -> int:
            if node.is_leaf:
                return 1
            return 1 + sum(count(c) for c in node.children)

        return count(self._root)

    def lookup_cost_blocks(self, root_cached: bool = True) -> int:
        """Block reads per point lookup (the directory-cost metric).

        With the root pinned in memory — standard practice, and the
        paper keeps its whole directory in memory — a lookup reads
        ``height - 1`` blocks.
        """
        return max(0, self._height - (1 if root_cached else 0))

    def occupancy(self) -> float:
        """Mean fill of all nodes relative to ``order``."""
        total = 0
        used = 0

        def walk(node: _Node) -> None:
            nonlocal total, used
            total += self.config.order
            used += len(node.keys)
            if not node.is_leaf:
                for child in node.children:
                    walk(child)

        walk(self._root)
        return used / total if total else 0.0

    # -- search ------------------------------------------------------------

    def _find_leaf(self, key: int) -> _Node:
        node = self._root
        while not node.is_leaf:
            idx = bisect.bisect_right(node.keys, key)
            node = node.children[idx]
        return node

    def get(self, key: int, default: Any = None) -> Any:
        leaf = self._find_leaf(key)
        idx = bisect.bisect_left(leaf.keys, key)
        if idx < len(leaf.keys) and leaf.keys[idx] == key:
            return leaf.values[idx]
        return default

    def __contains__(self, key: int) -> bool:
        sentinel = object()
        return self.get(key, sentinel) is not sentinel

    def items(self) -> Iterator[tuple[int, Any]]:
        """All (key, value) pairs in ascending key order."""
        node = self._root
        while not node.is_leaf:
            node = node.children[0]
        while node is not None:
            yield from zip(node.keys, node.values)
            node = node.next_leaf

    def range(self, lo: int, hi: int) -> Iterator[tuple[int, Any]]:
        """Pairs with ``lo <= key <= hi`` in ascending order."""
        if lo > hi:
            return
        leaf = self._find_leaf(lo)
        idx = bisect.bisect_left(leaf.keys, lo)
        while leaf is not None:
            while idx < len(leaf.keys):
                key = leaf.keys[idx]
                if key > hi:
                    return
                yield key, leaf.values[idx]
                idx += 1
            leaf = leaf.next_leaf
            idx = 0

    # -- insert -------------------------------------------------------------

    def insert(self, key: int, value: Any) -> None:
        """Insert or overwrite."""
        split = self._insert(self._root, key, value)
        if split is not None:
            sep, right = split
            new_root = _Node(leaf=False)
            new_root.keys = [sep]
            new_root.children = [self._root, right]
            self._root = new_root
            self._height += 1

    def _insert(self, node: _Node, key: int, value: Any):
        if node.is_leaf:
            idx = bisect.bisect_left(node.keys, key)
            if idx < len(node.keys) and node.keys[idx] == key:
                node.values[idx] = value
                return None
            node.keys.insert(idx, key)
            node.values.insert(idx, value)
            self._size += 1
            if len(node.keys) <= self.config.order:
                return None
            return self._split_leaf(node)
        idx = bisect.bisect_right(node.keys, key)
        split = self._insert(node.children[idx], key, value)
        if split is None:
            return None
        sep, right = split
        node.keys.insert(idx, sep)
        node.children.insert(idx + 1, right)
        if len(node.keys) <= self.config.order:
            return None
        return self._split_internal(node)

    def _split_leaf(self, node: _Node):
        mid = len(node.keys) // 2
        right = _Node(leaf=True)
        right.keys = node.keys[mid:]
        right.values = node.values[mid:]
        node.keys = node.keys[:mid]
        node.values = node.values[:mid]
        right.next_leaf = node.next_leaf
        node.next_leaf = right
        return right.keys[0], right

    def _split_internal(self, node: _Node):
        mid = len(node.keys) // 2
        sep = node.keys[mid]
        right = _Node(leaf=False)
        right.keys = node.keys[mid + 1:]
        right.children = node.children[mid + 1:]
        node.keys = node.keys[:mid]
        node.children = node.children[: mid + 1]
        return sep, right

    # -- delete -------------------------------------------------------------

    @property
    def _min_keys(self) -> int:
        return self.config.order // 2

    def delete(self, key: int) -> bool:
        """Remove a key; returns True when it was present."""
        removed = self._delete(self._root, key)
        if not self._root.is_leaf and len(self._root.children) == 1:
            self._root = self._root.children[0]
            self._height -= 1
        return removed

    def _delete(self, node: _Node, key: int) -> bool:
        if node.is_leaf:
            idx = bisect.bisect_left(node.keys, key)
            if idx >= len(node.keys) or node.keys[idx] != key:
                return False
            node.keys.pop(idx)
            node.values.pop(idx)
            self._size -= 1
            return True
        idx = bisect.bisect_right(node.keys, key)
        child = node.children[idx]
        removed = self._delete(child, key)
        if removed and len(child.keys) < self._min_keys:
            self._rebalance(node, idx)
        return removed

    def _rebalance(self, parent: _Node, idx: int) -> None:
        child = parent.children[idx]
        left = parent.children[idx - 1] if idx > 0 else None
        right = (
            parent.children[idx + 1]
            if idx + 1 < len(parent.children)
            else None
        )
        # Borrow from a rich sibling first.
        if left is not None and len(left.keys) > self._min_keys:
            self._borrow_left(parent, idx, left, child)
        elif right is not None and len(right.keys) > self._min_keys:
            self._borrow_right(parent, idx, child, right)
        elif left is not None:
            self._merge(parent, idx - 1, left, child)
        elif right is not None:
            self._merge(parent, idx, child, right)

    def _borrow_left(self, parent, idx, left, child) -> None:
        if child.is_leaf:
            child.keys.insert(0, left.keys.pop())
            child.values.insert(0, left.values.pop())
            parent.keys[idx - 1] = child.keys[0]
        else:
            child.keys.insert(0, parent.keys[idx - 1])
            parent.keys[idx - 1] = left.keys.pop()
            child.children.insert(0, left.children.pop())

    def _borrow_right(self, parent, idx, child, right) -> None:
        if child.is_leaf:
            child.keys.append(right.keys.pop(0))
            child.values.append(right.values.pop(0))
            parent.keys[idx] = right.keys[0]
        else:
            child.keys.append(parent.keys[idx])
            parent.keys[idx] = right.keys.pop(0)
            child.children.append(right.children.pop(0))

    def _merge(self, parent, left_idx, left, right) -> None:
        """Fold ``right`` into ``left``; drop the separator."""
        if left.is_leaf:
            left.keys.extend(right.keys)
            left.values.extend(right.values)
            left.next_leaf = right.next_leaf
        else:
            left.keys.append(parent.keys[left_idx])
            left.keys.extend(right.keys)
            left.children.extend(right.children)
        parent.keys.pop(left_idx)
        parent.children.pop(left_idx + 1)

    # -- validation -------------------------------------------------------------

    def check_invariants(self) -> None:
        """Assert structural invariants (used by property tests)."""
        order = self.config.order

        def walk(node: _Node, lo, hi, depth: int) -> int:
            assert node.keys == sorted(node.keys), "unsorted keys"
            assert len(node.keys) <= order, "node over capacity"
            for key in node.keys:
                if lo is not None:
                    assert key >= lo, "key below subtree bound"
                if hi is not None:
                    assert key < hi, "key above subtree bound"
            if node.is_leaf:
                assert len(node.values) == len(node.keys)
                return depth
            assert len(node.children) == len(node.keys) + 1
            if node is not self._root:
                assert len(node.keys) >= 1
            depths = set()
            bounds = [lo] + node.keys + [hi]
            for i, child in enumerate(node.children):
                depths.add(walk(child, bounds[i], bounds[i + 1], depth + 1))
            assert len(depths) == 1, "leaves at different depths"
            return depths.pop()

        leaf_depth = walk(self._root, None, None, 1)
        assert leaf_depth == self._height, "height accounting broken"
        # Leaf chain covers exactly the keys in order.
        assert [k for k, _ in self.items()] == sorted(
            k for k, _ in self.items()
        )
        assert self._size == sum(1 for _ in self.items())
