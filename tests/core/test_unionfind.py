"""Unit tests for the union-find forest (thesis section 3.1.1).

The forest lives on the handles it partitions: ``Handle.uf`` is the parent
pointer (None on a root) and a root's ``Handle.block`` is its equilive
block, which carries the ``root`` and its ``rank``.  It is driven through
:class:`~repro.core.equilive.EquiliveManager`.
"""

import pytest

from repro.core.equilive import EquiliveManager, find_root
from repro.jvm.errors import IllegalStateError
from repro.jvm.frames import FrameIdSource, StaticFrame
from repro.jvm.heap import Heap
from repro.jvm.model import Program
from repro.jvm.threads import JThread


class Forest:
    """One frame, a heap and a manager; elements are tracked handles."""

    def __init__(self):
        self.frame = JThread(0, "t", FrameIdSource()).stack.push(None)
        self.heap = Heap(1 << 16)
        self.cls = Program().define_class("N", fields=["x"])
        self.manager = EquiliveManager(StaticFrame())

    def make_set(self):
        handle = self.heap.allocate(self.cls, 0, 1, 0)
        self.manager.create(handle, self.frame)
        return handle

    def union(self, a, b):
        """Merge the blocks of ``a`` and ``b``; return the surviving root."""
        manager = self.manager
        return manager.merge(
            manager.block_of(a), manager.block_of(b), self.frame).root

    def same_set(self, a, b):
        return self.manager.block_of(a) is self.manager.block_of(b)


def depth(handle):
    hops = 0
    while handle.uf is not None:
        handle = handle.uf
        hops += 1
    return hops


class TestMakeSet:
    def test_new_elements_are_their_own_roots(self):
        forest = Forest()
        xs = [forest.make_set() for _ in range(5)]
        for x in xs:
            assert x.uf is None
            assert x.block.root is x
            assert x.block.rank == 0
            assert find_root(x) is x


class TestUnionFind:
    def test_union_merges(self):
        forest = Forest()
        a, b = forest.make_set(), forest.make_set()
        root = forest.union(a, b)
        assert root in (a, b)
        assert forest.same_set(a, b)

    def test_union_returns_existing_root_when_already_merged(self):
        forest = Forest()
        a, b = forest.make_set(), forest.make_set()
        root = forest.union(a, b)
        manager = forest.manager
        assert find_root(a) is find_root(b) is root
        # A block never merges with itself; the collector's same-block
        # exit handles the repeat store, so no second union is counted.
        with pytest.raises(IllegalStateError):
            manager.merge(manager.block_of(a), manager.block_of(b),
                          forest.frame)
        assert manager.unions == 1

    def test_transitivity(self):
        forest = Forest()
        xs = [forest.make_set() for _ in range(10)]
        for a, b in zip(xs, xs[1:]):
            forest.union(a, b)
        assert all(forest.same_set(xs[0], x) for x in xs)

    def test_disjoint_sets_stay_disjoint(self):
        forest = Forest()
        xs = [forest.make_set() for _ in range(6)]
        forest.union(xs[0], xs[1])
        forest.union(xs[2], xs[3])
        assert not forest.same_set(xs[0], xs[2])
        assert not forest.same_set(xs[1], xs[4])

    def test_union_by_rank_bounds_rank_logarithmically(self):
        forest = Forest()
        xs = [forest.make_set() for _ in range(256)]
        # Balanced pairwise merging maximises rank growth.
        layer = xs
        while len(layer) > 1:
            nxt = []
            for i in range(0, len(layer) - 1, 2):
                nxt.append(forest.union(layer[i], layer[i + 1]))
            if len(layer) % 2:
                nxt.append(layer[-1])
            layer = nxt
        assert forest.manager.block_of(xs[0]).rank <= 8  # log2(256)

    def test_path_compression_flattens(self):
        forest = Forest()
        xs = [forest.make_set() for _ in range(64)]
        layer = xs
        while len(layer) > 1:
            layer = [forest.union(layer[i], layer[i + 1])
                     for i in range(0, len(layer), 2)]
        deepest = max(xs, key=depth)
        assert depth(deepest) > 1
        path = []
        node = deepest
        while node.uf is not None:
            path.append(node)
            node = node.uf
        root = forest.manager.block_of(deepest).root
        # After a find, every node on the path points directly at the root.
        assert all(node.uf is root for node in path)

    def test_roots_enumeration(self):
        forest = Forest()
        xs = [forest.make_set() for _ in range(4)]
        forest.union(xs[0], xs[1])
        roots = {block.root for block in forest.manager.blocks()}
        assert len(roots) == 3
        assert find_root(xs[0]) in roots


class TestReset:
    def test_reset_detaches_singleton(self):
        forest = Forest()
        a, b = forest.make_set(), forest.make_set()
        forest.union(a, b)
        manager = forest.manager
        manager.dismantle_all()
        assert not manager.has_block(a) and not manager.has_block(b)
        assert find_root(a) is a
        assert find_root(b) is b
        na = manager.create(a, forest.frame)
        nb = manager.create(b, forest.frame)
        assert na is not nb
        assert not forest.same_set(a, b)

    def test_reset_clears_rank(self):
        forest = Forest()
        xs = [forest.make_set() for _ in range(4)]
        forest.union(xs[0], xs[1])
        root = forest.union(xs[0], xs[2])
        assert root.block.rank == 1
        forest.manager.dismantle_all()
        assert root.block is None
        assert forest.manager.create(root, forest.frame).rank == 0


class TestCounters:
    def test_find_and_union_counters(self):
        forest = Forest()
        a, b = forest.make_set(), forest.make_set()
        manager = forest.manager
        ba, bb = manager.block_of(a), manager.block_of(b)
        before = manager.finds
        manager.merge(ba, bb, forest.frame)
        assert manager.unions == 1
        # Two finds for the representatives plus union's two root lookups.
        assert manager.finds == before + 4

    def test_same_set_counts_finds(self):
        forest = Forest()
        a, b = forest.make_set(), forest.make_set()
        manager = forest.manager
        before = manager.finds
        forest.same_set(a, b)
        assert manager.finds == before + 2
        manager.has_block(a)
        manager.detach(manager.block_of(b))
        assert manager.finds == before + 5
