"""Python calls per CG event, counted with ``sys.setprofile``.

A Mutator-driven run pays a Python frame for every call on its event
paths, so the number of calls an event makes is a deterministic measure of
its overhead that host noise cannot hide.  Each budget counts one event
under ``cg`` after an identical warm-up event, so the class field templates
are built and the stats Counters already hold their keys.

The counts before the collector's event paths were flattened: 8 calls per
``new``, 7 per merging ``putfield`` and 17 for the pop of a frame holding
3 blocks and 7 objects (3 member filters, 3 ``free_many`` calls and 7
``FreeList.free`` calls beneath ``on_frame_pop``).
"""

import sys

import pytest

from repro.core.policy import CGPolicy
from repro.jvm.mutator import Mutator
from repro.jvm.runtime import Runtime, RuntimeConfig


def python_calls(fn, *args) -> int:
    """Python function calls (``call`` events; builtins excluded) that
    ``fn(*args)`` makes, itself included."""
    calls = 0

    def profiler(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(profiler)
    try:
        fn(*args)
    finally:
        sys.setprofile(previous)
    return calls


@pytest.fixture
def m():
    rt = Runtime(RuntimeConfig(cg=CGPolicy()))
    rt.program.define_class("Node", fields=["next", "other"])
    return Mutator(rt)


def fill_frame(m):
    """Three blocks of 3, 2 and 2 objects on the current frame."""
    a, b, c = m.new("Node"), m.new("Node"), m.new("Node")
    m.putfield(a, "next", b)
    m.putfield(b, "next", c)
    d, e = m.new("Node"), m.new("Node")
    m.putfield(d, "next", e)
    f, g = m.new("Node"), m.new("Node")
    m.putfield(f, "next", g)
    for handle in (a, d, f):
        m.root(handle)


def test_new_makes_five_calls(m):
    # Mutator.new, tick, Runtime.allocate, Heap.allocate, on_alloc.
    with m.frame():
        m.new("Node")
        assert python_calls(m.new, "Node") == 5


def test_merging_putfield_makes_five_calls(m):
    # Mutator.putfield, tick, Runtime.store_field, on_store, _consume.
    with m.frame():
        a, b = m.new("Node"), m.new("Node")
        m.putfield(a, "next", b)
        c, d = m.new("Node"), m.new("Node")
        m.root(c)
        before = m.runtime.collector.stats.contaminations
        assert python_calls(m.putfield, c, "next", d) == 5
        assert m.runtime.collector.stats.contaminations == before + 1


def test_pop_of_three_blocks_makes_five_calls(m):
    # _FrameScope.__exit__, Runtime.pop_frame, CallStack.pop, on_frame_pop
    # and one Heap.free_many for all seven objects.
    stats = m.runtime.collector.stats
    with m.frame():
        fill_frame(m)
    scope = m.frame()
    scope.__enter__()
    fill_frame(m)
    assert len(scope.frame.cg_blocks) == 3
    popped = stats.objects_popped
    assert python_calls(scope.__exit__, None, None, None) == 5
    assert stats.objects_popped == popped + 7
    assert m.runtime.heap.free_list.frees == 14
