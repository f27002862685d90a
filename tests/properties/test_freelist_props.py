"""Property tests for the free-list allocator (invariant 5 of DESIGN.md)."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.jvm.heap import OBJECT_HEADER_WORDS, FreeList, Heap
from repro.jvm.model import Program

CAPACITY = 512


def check_freelist_invariants(fl: FreeList, allocated: dict) -> None:
    blocks = fl.blocks()
    # Address-ordered.
    addrs = [a for a, _ in blocks]
    assert addrs == sorted(addrs)
    # Non-overlapping, in-range, and never adjacent (always coalesced).
    prev_end = None
    for addr, size in blocks:
        assert size > 0
        assert 0 <= addr and addr + size <= fl.capacity
        if prev_end is not None:
            assert addr > prev_end, "adjacent free blocks must coalesce"
        prev_end = addr + size
    # Free blocks never overlap allocations.
    for addr, size in blocks:
        for a_addr, a_size in allocated.values():
            assert addr + size <= a_addr or a_addr + a_size <= addr
    # Conservation.
    assert fl.free_words + sum(s for _, s in allocated.values()) == fl.capacity


@st.composite
def alloc_free_scripts(draw):
    return draw(
        st.lists(
            st.one_of(
                st.tuples(st.just("alloc"), st.integers(1, 64)),
                st.tuples(st.just("free"), st.integers(0, 200)),
            ),
            max_size=120,
        )
    )


@given(alloc_free_scripts())
@settings(max_examples=200)
def test_invariants_under_random_traffic(script):
    fl = FreeList(CAPACITY)
    allocated = {}
    next_key = 0
    for op, arg in script:
        if op == "alloc":
            addr = fl.allocate(arg)
            if addr is not None:
                allocated[next_key] = (addr, arg)
                next_key += 1
        else:
            if allocated:
                key = sorted(allocated)[arg % len(allocated)]
                addr, size = allocated.pop(key)
                fl.free(addr, size)
        check_freelist_invariants(fl, allocated)


@given(alloc_free_scripts())
@settings(max_examples=100)
def test_free_everything_restores_single_block(script):
    fl = FreeList(CAPACITY)
    allocated = {}
    next_key = 0
    for op, arg in script:
        if op == "alloc":
            addr = fl.allocate(arg)
            if addr is not None:
                allocated[next_key] = (addr, arg)
                next_key += 1
        elif allocated:
            key = sorted(allocated)[arg % len(allocated)]
            addr, size = allocated.pop(key)
            fl.free(addr, size)
    for addr, size in allocated.values():
        fl.free(addr, size)
    assert fl.blocks() == [(0, CAPACITY)]


@given(st.lists(st.integers(1, 32), min_size=1, max_size=40))
@settings(max_examples=100)
def test_allocations_never_overlap(sizes):
    fl = FreeList(CAPACITY)
    spans = []
    for size in sizes:
        addr = fl.allocate(size)
        if addr is None:
            continue
        for a, s in spans:
            assert addr + size <= a or a + s <= addr
        spans.append((addr, size))


# ---------------------------------------------------------------------------
# Heap.free_many and Heap.allocate inline FreeList.free and FreeList.allocate's
# first probe: replay one script three ways and require identical state.
# ---------------------------------------------------------------------------

HEAP_WORDS = 96

#: Ten-word objects (array length 8) at 0, 10, 20 and 30; free the one at
#: 10.  A 56-word allocation fits the tail block exactly and leaves the
#: hint one past the end of the list; freeing the object at 0 then merges
#: into the last block, and the hint resets.  After a split at 0 and a free
#: of the 56 words at 40, the 56-word allocation leaves the hint past the
#: end again; a ten-word allocation clamps it and empties the list, and a
#: 2-word one fails on the empty list.  One batch then frees 20, 0 and 10:
#: the last free merges on both sides.
STALE_HINT_SCRIPT = [
    ("alloc", 8), ("alloc", 8), ("alloc", 8), ("alloc", 8),
    ("free", (1,)),
    ("alloc", 54),
    ("free", (0,)),
    ("alloc", 8),
    ("free", (2,)),
    ("alloc", 54),
    ("alloc", 8),
    ("alloc", 0),
    ("free", (0, 1, 2)),
]


@st.composite
def heap_scripts(draw):
    """Allocations of 2-16 words and batches of up to six frees (by
    position among the live objects) in a 96-word heap, small enough to
    fill, fit exactly and fragment within a short script."""
    return draw(
        st.lists(
            st.one_of(
                st.tuples(st.just("alloc"), st.integers(0, 14)),
                st.tuples(st.just("free"),
                          st.lists(st.integers(0, 40), min_size=1,
                                   max_size=6).map(tuple)),
            ),
            max_size=80,
        )
    )


def _state(heap: Heap):
    fl = heap.free_list
    return (fl.blocks(), fl._next_fit, fl.frees, fl.allocs, fl.search_steps,
            heap.live_words, heap.bytes_freed, heap.live_count())


def replay_three_ways(script):
    """Run ``script`` on a heap freeing with a :meth:`Heap.free` loop, on a
    heap freeing with :meth:`Heap.free_many`, and on a bare
    :class:`FreeList` (``allocate``/``free``, the reference for both
    inlines); assert after every step that all three agree.  Returns the
    edge cases the script reached."""
    program = Program()
    array = program.lookup(Program.ARRAY)
    loop, many = Heap(HEAP_WORDS), Heap(HEAP_WORDS)
    reference = FreeList(HEAP_WORDS)
    live = []
    reached = set()
    for op, arg in script:
        if op == "alloc":
            size = OBJECT_HEADER_WORDS + arg
            n = len(reference._addrs)
            if n == 0:
                reached.add("empty list")
            elif reference._next_fit > n - 1:
                reached.add("hint past the end")
            want = reference.allocate(size)
            got = (loop.allocate(array, 0, 1, 0, arg),
                   many.allocate(array, 0, 1, 0, arg))
            if want is None:
                assert got == (None, None)
            else:
                assert [h.addr for h in got] == [want, want]
                live.append(got)
                n = len(reference._addrs)
                if n and reference._next_fit == n:
                    reached.add("stale hint")
        else:
            batch = []
            for pick in arg:
                if live:
                    batch.append(live.pop(pick % len(live)))
            for old, _ in batch:
                n = len(reference._addrs)
                if n and reference._next_fit >= n:
                    reached.add("free at a stale hint")
                reference.free(old.addr, old.size)
                if len(reference._addrs) < n:
                    reached.add("two-sided merge")
                loop.free(old, "test")
            many.free_many([new for _, new in batch], "test")
        assert _state(loop) == _state(many)
        assert _state(many)[:5] == (
            reference.blocks(), reference._next_fit, reference.frees,
            reference.allocs, reference.search_steps)
        many.check_accounting()
    return reached


def test_stale_hint_script_reaches_every_edge_case():
    assert replay_three_ways(STALE_HINT_SCRIPT) == {
        "stale hint", "hint past the end", "empty list",
        "free at a stale hint", "two-sided merge",
    }


@given(heap_scripts())
@example(STALE_HINT_SCRIPT)
@settings(max_examples=300)
def test_free_many_and_allocate_match_the_free_list(script):
    replay_three_ways(script)
