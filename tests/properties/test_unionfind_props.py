"""Property tests: the handle-resident union-find vs a naive partition model.

Elements are handles registered with ``EquiliveManager.create``; a union is
``merge`` of their blocks (looked up with ``block_of``) when they differ.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.equilive import EquiliveManager, find_root
from repro.jvm.frames import FrameIdSource, StaticFrame
from repro.jvm.heap import Heap
from repro.jvm.model import Program
from repro.jvm.threads import JThread


@st.composite
def union_sequences(draw):
    n = draw(st.integers(min_value=1, max_value=40))
    ops = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=n - 1),
                st.integers(min_value=0, max_value=n - 1),
            ),
            max_size=80,
        )
    )
    return n, ops


class NaivePartition:
    """Reference model: explicit frozensets."""

    def __init__(self, n):
        self.sets = [{i} for i in range(n)]

    def union(self, a, b):
        sa = next(s for s in self.sets if a in s)
        sb = next(s for s in self.sets if b in s)
        if sa is not sb:
            self.sets.remove(sb)
            sa |= sb

    def same(self, a, b):
        return any(a in s and b in s for s in self.sets)


class Forest:
    """``n`` handles, each created as a singleton block on one frame."""

    def __init__(self, n):
        self.frame = JThread(0, "t", FrameIdSource()).stack.push(None)
        heap = Heap(1 << 16)
        cls = Program().define_class("N", fields=["x"])
        self.manager = EquiliveManager(StaticFrame())
        self.handles = [heap.allocate(cls, 0, 1, 0) for _ in range(n)]
        for handle in self.handles:
            self.manager.create(handle, self.frame)

    def union(self, a, b):
        manager = self.manager
        ba = manager.block_of(self.handles[a])
        bb = manager.block_of(self.handles[b])
        if ba is not bb:
            manager.merge(ba, bb, self.frame)

    def same_set(self, a, b):
        manager = self.manager
        return (manager.block_of(self.handles[a])
                is manager.block_of(self.handles[b]))


@given(union_sequences())
@settings(max_examples=200)
def test_matches_naive_model(seq):
    n, ops = seq
    forest = Forest(n)
    model = NaivePartition(n)
    for a, b in ops:
        forest.union(a, b)
        model.union(a, b)
    for a in range(n):
        for b in range(a, n):
            assert forest.same_set(a, b) == model.same(a, b)


@given(union_sequences())
@settings(max_examples=100)
def test_every_element_in_exactly_one_set(seq):
    n, ops = seq
    forest = Forest(n)
    for a, b in ops:
        forest.union(a, b)
    manager = forest.manager
    blocks = list(manager.blocks())
    owner = {}
    for block in blocks:
        for handle in block.members:
            assert handle.id not in owner
            owner[handle.id] = block
    assert sorted(owner) == sorted(h.id for h in forest.handles)
    for handle in forest.handles:
        assert manager.block_of(handle) is owner[handle.id]
        # Find is idempotent and stable.
        root = find_root(handle)
        assert root.block is owner[handle.id]
        assert find_root(root) is root
        assert find_root(handle) is root


@given(union_sequences())
@settings(max_examples=100)
def test_rank_bounded_by_log(seq):
    n, ops = seq
    forest = Forest(n)
    for a, b in ops:
        forest.union(a, b)
    bound = math.log2(n)
    for block in forest.manager.blocks():
        # Union by rank: a rank-r tree holds at least 2**r handles.
        assert 2 ** block.rank <= len(block.members)
        assert block.rank <= bound


@given(union_sequences())
@settings(max_examples=100)
def test_union_is_commutative_in_effect(seq):
    n, ops = seq
    forward = Forest(n)
    swapped = Forest(n)
    for a, b in ops:
        forward.union(a, b)
        swapped.union(b, a)
    for a in range(n):
        for b in range(n):
            assert forward.same_set(a, b) == swapped.same_set(a, b)
