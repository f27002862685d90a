"""Unit tests for the heap: free list, handles, accounting, compaction."""

import pytest

from repro.jvm.errors import UseAfterCollect, VMError
from repro.jvm.heap import (
    OBJECT_HEADER_WORDS,
    FreeList,
    Handle,
    Heap,
)
from repro.jvm.model import Program


def make_heap(capacity=1024):
    return Heap(capacity), Program()


class TestFreeList:
    def test_initial_state_one_block(self):
        fl = FreeList(100)
        assert fl.blocks() == [(0, 100)]
        assert fl.free_words == 100

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            FreeList(0)

    def test_allocate_carves_from_front(self):
        fl = FreeList(100)
        assert fl.allocate(10) == 0
        assert fl.allocate(10) == 10
        assert fl.free_words == 80

    def test_allocate_exact_block_removes_it(self):
        fl = FreeList(10)
        assert fl.allocate(10) == 0
        assert fl.blocks() == []
        assert fl.allocate(1) is None

    def test_allocation_failure_returns_none(self):
        fl = FreeList(10)
        assert fl.allocate(11) is None

    def test_free_and_reuse(self):
        fl = FreeList(30)
        a = fl.allocate(10)
        b = fl.allocate(10)
        fl.free(a, 10)
        fl.reset_scan()
        assert fl.allocate(10) == a
        assert b == 10

    def test_coalesce_with_previous(self):
        fl = FreeList(30)
        a = fl.allocate(10)
        b = fl.allocate(10)
        fl.free(a, 10)
        fl.free(b, 10)
        assert fl.blocks() == [(0, 30)]

    def test_coalesce_with_next(self):
        fl = FreeList(30)
        a = fl.allocate(10)
        b = fl.allocate(10)
        fl.free(b, 10)
        fl.free(a, 10)
        assert fl.blocks() == [(0, 30)]

    def test_coalesce_bridges_both_sides(self):
        fl = FreeList(30)
        a = fl.allocate(10)
        b = fl.allocate(10)
        c = fl.allocate(10)
        fl.free(a, 10)
        fl.free(c, 10)
        assert len(fl.blocks()) == 2
        fl.free(b, 10)
        assert fl.blocks() == [(0, 30)]

    def test_overlapping_free_rejected(self):
        fl = FreeList(30)
        fl.allocate(10)
        fl.free(0, 10)
        with pytest.raises(VMError):
            fl.free(5, 10)

    def test_next_fit_resumes_after_last_allocation(self):
        fl = FreeList(100)
        a = fl.allocate(20)  # 0
        b = fl.allocate(20)  # 20
        fl.allocate(60)      # 40..100, list now empty
        fl.free(a, 20)
        fl.free(b, 20)       # coalesced: one 40-word block at 0
        # next-fit wraps and finds it
        assert fl.allocate(30) == 0

    def test_search_steps_counted(self):
        fl = FreeList(100)
        before = fl.search_steps
        fl.allocate(10)
        assert fl.search_steps == before + 1

    def test_fragmented_search_costs_more(self):
        fl = FreeList(100)
        addrs = [fl.allocate(10) for _ in range(10)]
        # Free alternating blocks: five 10-word holes.
        for a in addrs[::2]:
            fl.free(a, 10)
        fl.reset_scan()
        before = fl.search_steps
        assert fl.allocate(10) is not None
        assert fl.search_steps == before + 1  # first hole fits
        fl.reset_scan()
        before = fl.search_steps
        assert fl.allocate(20) is None  # no hole fits: scanned all
        assert fl.search_steps - before == len(fl.blocks())

    def test_scan_past_the_hint_counts_every_probe(self):
        fl = FreeList(100)
        addrs = [fl.allocate(10) for _ in range(10)]
        for a in (addrs[2], addrs[6]):
            fl.free(a, 10)
        fl.free(addrs[7], 10)  # holes: 10 words at 20, 20 words at 60
        fl.reset_scan()
        before = fl.search_steps
        assert fl.allocate(20) == 60  # first probe misses, second fits
        assert fl.search_steps - before == 2


class TestHeapAllocation:
    def test_allocate_object_charges_header_plus_fields(self):
        heap, prog = make_heap()
        node = prog.define_class("Node", fields=["a", "b", "c"])
        h = heap.allocate(node, 0, 1, 0)
        assert h.size == OBJECT_HEADER_WORDS + 3
        assert set(h.fields) == {"a", "b", "c"}
        assert all(v is None for v in h.fields.values())

    def test_allocate_array(self):
        heap, prog = make_heap()
        arr = heap.allocate(prog.lookup(Program.ARRAY), 0, 1, 0, length=5)
        assert arr.is_array
        assert arr.length == 5
        assert arr.size == OBJECT_HEADER_WORDS + 5
        assert arr.elements == [None] * 5

    def test_zero_length_array(self):
        heap, prog = make_heap()
        arr = heap.allocate(prog.lookup(Program.ARRAY), 0, 1, 0, length=0)
        assert arr.length == 0
        assert arr.size == OBJECT_HEADER_WORDS

    def test_handles_get_unique_increasing_ids(self):
        heap, prog = make_heap()
        node = prog.define_class("N", fields=["x"])
        ids = [heap.allocate(node, 0, 1, 0).id for _ in range(5)]
        assert ids == sorted(ids)
        assert len(set(ids)) == 5

    def test_exhaustion_returns_none(self):
        heap, prog = make_heap(capacity=16)
        big = prog.define_class("Big", fields=[f"f{i}" for i in range(20)])
        assert heap.allocate(big, 0, 1, 0) is None

    def test_birth_metadata_recorded(self):
        heap, prog = make_heap()
        node = prog.define_class("N2", fields=["x"])
        h = heap.allocate(node, 3, 42, 7)
        assert h.alloc_thread == 3
        assert h.birth_frame_id == 42
        assert h.birth_depth == 7

    @pytest.mark.parametrize("kind", ["object", "fieldless", "array"])
    def test_allocate_fills_every_slot_like_the_constructor(self, kind):
        # Heap.allocate builds the handle slot by slot instead of calling
        # Handle(...): a slot the constructor gains must be set there too.
        heap, prog = make_heap()
        cls, length = {
            "object": (prog.define_class("S", fields=["a", "b"]), None),
            "fieldless": (prog.define_class("E", fields=[]), None),
            "array": (prog.lookup(Program.ARRAY), 3),
        }[kind]
        got = heap.allocate(cls, 2, 9, 4, length)
        want = Handle(got.id, cls, got.addr, got.size, 2, 9, 4, length)
        assert got.size == heap.size_of(cls, length)
        for slot in Handle.__slots__:
            assert getattr(got, slot) == getattr(want, slot), slot


class TestHeapFreeAndAccounting:
    def test_free_returns_storage(self):
        heap, prog = make_heap()
        node = prog.define_class("N", fields=["x"])
        h = heap.allocate(node, 0, 1, 0)
        live_before = heap.live_words
        heap.free(h, "test")
        assert h.freed
        assert h.freed_by == "test"
        assert heap.live_words == live_before - h.size
        heap.check_accounting()

    def test_double_free_rejected(self):
        heap, prog = make_heap()
        node = prog.define_class("N", fields=["x"])
        h = heap.allocate(node, 0, 1, 0)
        heap.free(h, "test")
        with pytest.raises(VMError):
            heap.free(h, "test")

    def test_free_many_matches_a_free_loop(self):
        one, prog = make_heap()
        many = Heap(1024)
        node = prog.define_class("N", fields=["x"])
        handles = {}
        for heap in (one, many):
            handles[heap] = [heap.allocate(node, 0, 1, 0) for _ in range(6)]
        order = [4, 0, 5, 2]
        for h in (handles[one][i] for i in order):
            one.free(h, "test")
        many.free_many([handles[many][i] for i in order], "test")
        assert many.free_list.blocks() == one.free_list.blocks()
        assert many.free_list.frees == one.free_list.frees == 4
        assert (many.live_words, many.bytes_freed, many.live_count()) == (
            one.live_words, one.bytes_freed, one.live_count())
        assert all(h.freed and h.freed_by == "test" and h.fields is None
                   for h in (handles[many][i] for i in order))
        many.check_accounting()

    def test_free_many_rejects_double_free(self):
        heap, prog = make_heap()
        node = prog.define_class("N", fields=["x"])
        a, b = heap.allocate(node, 0, 1, 0), heap.allocate(node, 0, 1, 0)
        heap.free(b, "test")
        with pytest.raises(VMError):
            heap.free_many([a, b], "test")
        heap.check_accounting()

    def test_freed_handle_access_raises(self):
        heap, prog = make_heap()
        node = prog.define_class("N", fields=["x"])
        h = heap.allocate(node, 0, 1, 0)
        heap.free(h, "oracle-test")
        with pytest.raises(UseAfterCollect):
            h.check_live()

    def test_freed_handle_drops_outgoing_references(self):
        heap, prog = make_heap()
        node = prog.define_class("N", fields=["x"])
        a = heap.allocate(node, 0, 1, 0)
        b = heap.allocate(node, 0, 1, 0)
        a.fields["x"] = b
        heap.free(a, "test")
        assert a.fields is None

    def test_retire_parks_storage(self):
        heap, prog = make_heap()
        node = prog.define_class("N", fields=["x"])
        h = heap.allocate(node, 0, 1, 0)
        free_before = heap.free_list.free_words
        heap.retire(h, "cg")
        assert h.freed
        assert heap.free_list.free_words == free_before  # NOT returned yet
        heap.check_accounting(recycled_words=h.size)
        heap.release_recycled(h)
        heap.check_accounting()

    def test_accounting_detects_leak(self):
        heap, prog = make_heap()
        node = prog.define_class("N", fields=["x"])
        h = heap.allocate(node, 0, 1, 0)
        heap.retire(h, "cg")  # parked but not reported as recycled
        with pytest.raises(VMError):
            heap.check_accounting(recycled_words=0)


class TestAdoptStorage:
    def test_adopt_reuses_address(self):
        heap, prog = make_heap()
        node = prog.define_class("N", fields=["x"])
        old = heap.allocate(node, 0, 1, 0)
        addr = old.addr
        heap.retire(old, "cg")
        new = heap.adopt_storage(old, node, 0, 2, 1)
        assert new.addr == addr
        assert new.id != old.id
        heap.check_accounting()

    def test_adopt_from_larger_donor_returns_surplus(self):
        heap, prog = make_heap()
        big = prog.define_class("BigD", fields=[f"f{i}" for i in range(10)])
        small = prog.define_class("SmallD", fields=["x"])
        old = heap.allocate(big, 0, 1, 0)
        heap.retire(old, "cg")
        free_before = heap.free_list.free_words
        new = heap.adopt_storage(old, small, 0, 2, 1)
        surplus = old.size - new.size
        assert surplus > 0
        assert heap.free_list.free_words == free_before + surplus
        heap.check_accounting()

    def test_adopt_requires_dead_donor(self):
        heap, prog = make_heap()
        node = prog.define_class("N", fields=["x"])
        live = heap.allocate(node, 0, 1, 0)
        with pytest.raises(VMError):
            heap.adopt_storage(live, node, 0, 2, 1)

    def test_adopt_requires_big_enough_donor(self):
        heap, prog = make_heap()
        small = prog.define_class("S", fields=["x"])
        big = prog.define_class("B", fields=[f"f{i}" for i in range(10)])
        old = heap.allocate(small, 0, 1, 0)
        heap.retire(old, "cg")
        with pytest.raises(VMError):
            heap.adopt_storage(old, big, 0, 2, 1)


class TestCompaction:
    def test_compact_slides_objects_to_base(self):
        heap, prog = make_heap()
        node = prog.define_class("N", fields=["x"])
        handles = [heap.allocate(node, 0, 1, 0) for _ in range(5)]
        for h in handles[::2]:
            heap.free(h, "test")
        moved = heap.compact()
        assert moved > 0
        live = sorted(heap.live_handles(), key=lambda h: h.addr)
        cursor = 0
        for h in live:
            assert h.addr == cursor
            cursor += h.size
        assert heap.free_list.blocks() == [(cursor, heap.capacity - cursor)]
        heap.check_accounting()

    def test_compact_empty_heap(self):
        heap, _ = make_heap()
        assert heap.compact() == 0
        assert heap.free_list.free_words == heap.capacity

    def test_replace_free_space_matches_next_fit_contract(self):
        fl = FreeList(256)
        fl.allocate(50)
        fl.replace_free_space([(200, 56), (0, 100)])
        assert fl.free_words == 156
        assert fl.largest_block == 100
        assert fl.blocks() == [(0, 100), (200, 56)]


class TestHandleModel:
    def test_references_iterates_fields(self):
        heap, prog = make_heap()
        node = prog.define_class("N", fields=["a", "b"])
        x = heap.allocate(node, 0, 1, 0)
        y = heap.allocate(node, 0, 1, 0)
        x.fields["a"] = y
        x.fields["b"] = 42  # primitives are not references
        assert list(x.references()) == [y]

    def test_references_iterates_array_elements(self):
        heap, prog = make_heap()
        node = prog.define_class("N", fields=["a"])
        arr = heap.allocate(prog.lookup(Program.ARRAY), 0, 1, 0, length=3)
        y = heap.allocate(node, 0, 1, 0)
        arr.elements[1] = y
        arr.elements[2] = "not-a-ref"
        assert list(arr.references()) == [y]

    def test_arraylength_on_object_raises(self):
        heap, prog = make_heap()
        node = prog.define_class("N", fields=["a"])
        h = heap.allocate(node, 0, 1, 0)
        with pytest.raises(VMError):
            _ = h.length

    def test_handle_region_accounting(self):
        heap, prog = make_heap()
        heap.handle_words = 16
        node = prog.define_class("N", fields=["a"])
        for _ in range(4):
            heap.allocate(node, 0, 1, 0)
        assert heap.handle_region_words() == 64
