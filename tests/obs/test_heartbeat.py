"""Heartbeat snapshots: cadence, determinism, spool hygiene, shared schema.

The heartbeat is the live counterpart of the crash dump: every
``heartbeat_every`` executed opcodes the runtime serializes a
:class:`LiveSnapshot` into a bounded spool ring.  The contract under test:

* beats fire at *exact* op counts, identically under both dispatch
  modes (slices end where a beat is due, same discipline as
  ``gc_period_ops``);
* arming a heartbeat leaves every determinism counter bit-identical to a
  heartbeat-off run — observation must not perturb the experiment;
* the spool ring never exceeds its bounds (lines per file, files per pid);
* crash dumps and heartbeats share the ``cg-snapshot/8`` schema.
"""

from __future__ import annotations

import json
import os

import pytest

from repro import CGPolicy, Runtime, RuntimeConfig, assemble
from repro.faults import CrashDump
from repro.obs.heartbeat import (
    DEFAULT_RING,
    MAX_RUN_FILES,
    SNAPSHOT_SCHEMA,
    Heartbeat,
    LiveSnapshot,
    run_file_pid,
    runtime_snapshot,
)

DISPATCHES = ("table", "tiered")

#: ~8 ops per iteration plus prologue; allocates a Node each lap so the
#: heap/equilive sections of the snapshot are non-trivial.
LOOP = (
    "class Node\nfield next\n"
    "class Main\n"
    "method Main.main(1)\n"
    "    const 0\n    store 1\n"
    "loop:\n"
    "    new Node\n    pop\n"
    "    iinc 1 1\n"
    "    load 1\n    load 0\n    if_icmplt loop\n"
    "    load 1\n    retval\n"
)


def run_loop(iterations, dispatch, tmp_path=None, every=None, **config_kwargs):
    config_kwargs.setdefault("cg", CGPolicy(paranoid=True))
    if every is not None:
        config_kwargs["heartbeat_every"] = every
        config_kwargs["heartbeat_spool"] = str(tmp_path)
    rt = Runtime(RuntimeConfig(dispatch=dispatch, **config_kwargs),
                 program=assemble(LOOP))
    result = rt.run("Main.main", [iterations])
    assert result == iterations
    if rt.heartbeat is not None:
        rt.heartbeat.close(rt)
    return rt


def read_spool(tmp_path):
    files = sorted(p for p in os.listdir(tmp_path) if p.startswith("run-"))
    assert files, f"no run files in {tmp_path}"
    out = []
    for name in files:
        with open(os.path.join(tmp_path, name)) as fh:
            out.append([json.loads(line) for line in fh])
    return files, out


class TestCadence:
    @pytest.mark.parametrize("dispatch", DISPATCHES)
    def test_beats_at_exact_op_counts(self, dispatch, tmp_path):
        every = 100
        rt = run_loop(300, dispatch, tmp_path, every=every)
        _, spools = read_spool(tmp_path)
        snaps = spools[-1]
        live = [s for s in snaps if s["phase"] == "live"]
        assert live, "no live beats fired"
        for snap in live:
            assert snap["ops"] % every == 0, snap["ops"]
        seqs = [s["seq"] for s in snaps]
        assert seqs == sorted(seqs)
        assert len(set(seqs)) == len(seqs)
        assert snaps[-1]["phase"] == "final"
        assert snaps[-1]["ops"] == rt.ops

    def test_same_beat_schedule_across_dispatch_tiers(self, tmp_path):
        schedules = {}
        for dispatch in DISPATCHES:
            spool = tmp_path / dispatch
            spool.mkdir()
            run_loop(300, dispatch, spool, every=64)
            _, spools = read_spool(spool)
            schedules[dispatch] = [
                (s["seq"], s["ops"], s["phase"]) for s in spools[-1]
            ]
        assert schedules["tiered"] == schedules["table"]

    def test_beats_fire_alongside_periodic_gc(self, tmp_path):
        # gc_period and heartbeat share the due-point slicing; both
        # triggers must keep firing when armed together.
        rt = run_loop(400, "tiered", tmp_path, every=128, gc_period_ops=256)
        assert rt.collector is None or rt.ops > 0
        _, spools = read_spool(tmp_path)
        live = [s for s in spools[-1] if s["phase"] == "live"]
        assert live and all(s["ops"] % 128 == 0 for s in live)


class TestDeterminism:
    @pytest.mark.parametrize("dispatch", DISPATCHES)
    def test_counters_bit_identical_with_heartbeat(self, dispatch, tmp_path):
        base = run_loop(500, dispatch)
        beat = run_loop(500, dispatch, tmp_path, every=50)
        assert beat.ops == base.ops
        assert beat.heap.occupancy() == base.heap.occupancy()
        assert (beat.heap.free_list.search_steps
                == base.heap.free_list.search_steps)
        if base.collector is not None:
            assert beat.collector.stats == base.collector.stats
            assert (beat.collector.final_census()
                    == base.collector.final_census())

    def test_bench_counters_bit_identical_through_api(self, tmp_path):
        # The benchmark harness's determinism fingerprint is (vm.ops,
        # alloc.search_steps); arming a heartbeat must not move either,
        # nor any other counter a BENCH_*.json row reads.
        from repro import api

        base = api.run("compress", 1, "cg")
        beat = api.run("compress", 1, "cg", heartbeat_every=500,
                       heartbeat_spool=str(tmp_path))
        assert beat.metrics["counters"] == base.metrics["counters"]
        assert beat.metrics["histograms"] == base.metrics["histograms"]

    def test_fingerprint_excludes_heartbeat(self, tmp_path):
        plain = RuntimeConfig()
        armed = RuntimeConfig(heartbeat_every=100,
                              heartbeat_spool=str(tmp_path),
                              heartbeat_labels={"workload": "x"})
        assert armed.fingerprint() == plain.fingerprint()

    def test_heartbeat_every_validated(self):
        with pytest.raises(ValueError):
            RuntimeConfig(heartbeat_every=0)


class TestSpoolHygiene:
    def test_ring_bounded(self, tmp_path):
        run_loop(3000, "tiered", tmp_path, every=10)
        _, spools = read_spool(tmp_path)
        assert 0 < len(spools[-1]) <= DEFAULT_RING

    def test_custom_ring_size(self, tmp_path):
        hb = Heartbeat(every=1, spool=tmp_path, ring=3)
        rt = run_loop(50, "tiered")
        for _ in range(10):
            hb.beat(rt)
        hb.close(rt)
        _, spools = read_spool(tmp_path)
        assert len(spools[-1]) == 3
        assert spools[-1][-1]["phase"] == "final"

    def test_run_files_pruned_per_pid(self, tmp_path):
        rt = run_loop(50, "tiered")
        for _ in range(MAX_RUN_FILES + 5):
            hb = Heartbeat(every=1, spool=tmp_path)
            hb.beat(rt)
            hb.close(rt)
        files, _ = read_spool(tmp_path)
        mine = [f for f in files if run_file_pid(f) == os.getpid()]
        assert 0 < len(mine) <= MAX_RUN_FILES

    def test_close_is_idempotent(self, tmp_path):
        hb = Heartbeat(every=1, spool=tmp_path)
        rt = run_loop(50, "tiered")
        hb.close(rt)
        hb.close(rt)
        _, spools = read_spool(tmp_path)
        assert sum(1 for s in spools[-1] if s["phase"] == "final") == 1

    def test_unwritable_spool_is_swallowed(self, tmp_path):
        # Observation must never kill the run: a spool path that cannot
        # even be created (here: nested under a regular file) degrades
        # every beat to a no-op.
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        hb = Heartbeat(every=1, spool=blocker / "deep" / "spool")
        rt = run_loop(50, "tiered")
        hb.beat(rt)
        hb.close(rt)


class TestSharedSchema:
    def test_snapshot_shape(self):
        rt = run_loop(200, "tiered")
        snap = LiveSnapshot.capture(rt, seq=7, phase="live",
                                    labels={"workload": "loop"})
        data = snap.data
        assert data["schema"] == SNAPSHOT_SCHEMA
        assert data["kind"] == "heartbeat"
        assert data["seq"] == 7
        assert data["pid"] == os.getpid()
        assert data["ops"] == rt.ops
        assert data["heap"]["capacity_words"] > 0
        assert "live_words" in data["heap"]
        assert data["frames"]
        assert "counters" in data["metrics"]
        json.dumps(data)  # fully serializable

    def test_crash_dump_builds_on_same_serializer(self):
        rt = run_loop(200, "tiered")
        dump = CrashDump.capture(rt, reason="test", site="heap.alloc")
        base = runtime_snapshot(rt)
        assert dump.data["schema"] == SNAPSHOT_SCHEMA
        assert dump.data["kind"] == "crash"
        assert dump.data["reason"] == "test"
        assert dump.data["site"] == "heap.alloc"
        # Shared sections agree with the live serializer.
        for key in ("ops", "heap", "equilive", "recycle"):
            assert dump.data[key] == base[key], key
        json.loads(dump.to_json())
