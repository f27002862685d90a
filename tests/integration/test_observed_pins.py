"""Observed bytecode runs: where periodic GCs and heartbeats fire.

``gc_period_ops`` (Fig 4.11's "every 100,000 JVM instructions") and
``heartbeat_every`` fire at exact op counts: just before the decoded
instruction that ticks the due op, periodic GC first.  Implicit end-of-code
returns run but never tick.  The pins below were recorded when every
instruction ticked on its own.  A shift that the table and tiered loops
share would pass every parity test, so they pin, for bc-list size 1 under
``cg``, the count of collections and beats, a digest of the op count, heap
occupancy and per-thread frame depths at each, and the CG counters the
collections decide.

Observing a run must not change its code path either: a deadline that
never fires, the phase profiler or an event tracer leaves promotion to
generated code as in the plain run.
"""

import dataclasses
import hashlib
import json

import pytest

from repro import Runtime, RuntimeConfig, assemble
from repro.api import RunRequest, config_for, execute
from repro.obs.events import Tracer
from repro.workloads.base import get_workload
from tests.conftest import assert_dispatch_parity, dispatch_sweep
from tests.jvm.test_lone_slice import CASES, schedules_agree

NONE = hashlib.sha1(b"[]").hexdigest()

#: name: (observation, periodic GCs, their digest, beats, their digest,
#: CG counters, census)
PINS = {
    "gc97": (
        dict(gc_period_ops=97),
        2439, "6d7877a1562c0e6b0f486da1e125588e3d0d5759", 0, NONE,
        {"objects_popped": 2, "collected_by_msa": 8398,
         "blocks_collected": 1, "block_size_hist": {2: 1},
         "age_hist": {1: 2}},
        {"popped": 2, "static": 0, "thread": 0, "collected_by_msa": 8398},
    ),
    "hb250": (
        dict(heartbeat_every=250),
        0, NONE, 946, "297ce1e37d9ced29b0b7ea79dc725865eda68eb2",
        {"objects_popped": 240, "collected_by_msa": 8160,
         "blocks_collected": 20, "block_size_hist": {12: 20},
         "age_hist": {1: 240}},
        {"popped": 240, "static": 0, "thread": 0, "collected_by_msa": 8160},
    ),
    "both": (
        dict(gc_period_ops=500, heartbeat_every=333),
        473, "0f3c0fe7e73880c0e9e5cf1a5ca1f18500598974",
        710, "4abdfcd50c1b9d3c2b7486134a65b3ba9d97fc10",
        {"objects_popped": 9, "collected_by_msa": 8391,
         "blocks_collected": 1, "block_size_hist": {9: 1},
         "age_hist": {1: 9}},
        {"popped": 9, "static": 0, "thread": 0, "collected_by_msa": 8391},
    ),
}


def state(rt):
    return (rt.ops, rt.heap.occupancy(),
            [len(thread.stack.frames) for thread in rt.threads()])


def record_beats(rt):
    """The list that ``state`` at each of ``rt``'s heartbeats goes to."""
    beats = []
    beat = rt.heartbeat.beat

    def recording(runtime, phase="live"):
        beats.append(state(runtime))
        return beat(runtime, phase)

    rt.heartbeat.beat = recording
    return beats


def observed_run(tmp_path, **observe):
    """bc-list size 1, seed 3, ``cg`` with ``observe`` armed; returns the
    runtime and the ``(ops, occupancy, depths)`` of every periodic GC and
    every beat."""
    wl = get_workload("bc-list", seed=3)
    config = dataclasses.replace(
        config_for("cg", wl.heap_words(1)), heartbeat_spool=str(tmp_path),
        **observe)
    rt = Runtime(config)
    collections = []
    beats = record_beats(rt) if rt.heartbeat is not None else []
    # A periodic GC moves ``_last_periodic_gc`` before it collects; an
    # allocation-failure GC leaves it alone.
    last = [rt._last_periodic_gc]
    run_gc = rt.run_gc

    def recording_gc():
        if rt._last_periodic_gc != last[0]:
            last[0] = rt._last_periodic_gc
            collections.append(state(rt))
        return run_gc()

    rt.run_gc = recording_gc
    wl.execute(rt, 1)
    return rt, collections, beats


def digest(states):
    return hashlib.sha1(
        json.dumps(states, sort_keys=True).encode()).hexdigest()


def cg_counters(stats):
    """The CG counters a collection's timing can move."""
    return {
        "objects_popped": stats.objects_popped,
        "collected_by_msa": stats.collected_by_msa,
        "blocks_collected": stats.blocks_collected,
        "block_size_hist": dict(stats.block_size_hist),
        "age_hist": dict(stats.age_hist),
    }


@pytest.mark.parametrize("name", sorted(PINS))
def test_events_fire_where_pinned(name, tmp_path):
    observe, n_gcs, gcs, n_beats, beat_digest, counters, census = PINS[name]
    rt, collections, beats = observed_run(tmp_path, **observe)
    assert (len(collections), digest(collections)) == (n_gcs, gcs)
    assert (len(beats), digest(beats)) == (n_beats, beat_digest)
    assert cg_counters(rt.collector.stats) == counters
    assert rt.collector.final_census() == census


#: ``Main.leaf`` falls off the end of its code: an implicit return, which
#: runs but never ticks, so a beat due next belongs after it.
IMPLICIT_RETURNS = """
class Node
    field next

class Main
method Main.leaf(0) locals=1
    new Node
    store 0

method Main.main(1) locals=2
    const 0
    store 1
loop:
    load 1
    load 0
    if_icmpge done
    invokestatic Main.leaf
    iinc 1 1
    goto loop
done:
    load 1
    retval
"""


def oracle_beats(every):
    """Where beats belong: before each decoded instruction whose tick
    reaches a multiple of ``every``, found by stepping one instruction at a
    time with nothing armed."""
    rt = Runtime(RuntimeConfig(dispatch="table"),
                 program=assemble(IMPLICIT_RETURNS))
    interp = rt.interpreter
    thread = rt.main_thread
    interp._push_call(thread, "Main.main", [30])
    frames = thread.stack.frames
    beats = []
    while frames:
        frame = frames[-1]
        if frame.pc < len(frame.method.code) and (rt.ops + 1) % every == 0:
            rt.ops += 1
            beats.append(state(rt))
            rt.ops -= 1
        interp.step_n(thread, 1)
    return beats


@pytest.mark.parametrize("every", [2, 3, 5, 7, 9])
def test_beats_fire_past_implicit_returns(every, tmp_path):
    def run(dispatch, promote_after):
        rt = Runtime(RuntimeConfig(dispatch=dispatch,
                                   promote_after=promote_after,
                                   heartbeat_every=every,
                                   heartbeat_spool=str(tmp_path)),
                     program=assemble(IMPLICIT_RETURNS))
        beats = record_beats(rt)
        assert rt.run("Main.main", [30]) == 30
        return beats, rt

    expected = oracle_beats(every)
    assert expected
    for leg, beats in dispatch_sweep(run).items():
        assert beats == expected, leg


@pytest.mark.parametrize("case", sorted(CASES))
def test_spawn_at_a_chunk_end_ends_the_slice(case):
    # With a collection due every 4 ops, chunks are at most 3 instructions
    # long, so spawns land on chunk ends; the lone slice must still end
    # there, so that every schedule agrees.
    assert_dispatch_parity(schedules_agree(
        case, 7, lambda rt: lambda: rt.tracing.work.cycles,
        gc_period_ops=4, heap_words=4096))


@pytest.mark.parametrize("observe", [
    lambda: dict(gc_period_ops=10 ** 12),
    lambda: dict(heartbeat_every=10 ** 12),
    lambda: dict(profile=True),
    lambda: dict(tracer=Tracer()),
], ids=["gc_period_ops", "heartbeat_every", "profile", "tracer"])
def test_deadline_that_never_fires_keeps_the_path(observe, tmp_path,
                                                  monkeypatch):
    # Pinned to tiered (the suite may sweep the default to table): the
    # plain cold run promotes and codegens 4 methods.
    monkeypatch.setenv("REPRO_DISPATCH", "tiered")

    def run(**config):
        result = execute(RunRequest("bc-calls", 10, "cg", cold_start=True,
                                    heartbeat_spool=str(tmp_path), **config))
        counters = result.metrics["counters"]
        return (result.ops, counters["vm.compile.promoted"],
                counters["vm.compile.codegenned"])

    assert run(**observe()) == run() == (586_396, 4, 4)
