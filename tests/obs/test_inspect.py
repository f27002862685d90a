"""``repro inspect``: spool reading, rendering, fleet rollup, CLI.

The acceptance bar for the whole subsystem is the last test here:
a run started in *another process* with ``heartbeat_every`` armed can be
inspected live — ``repro inspect`` renders a snapshot while the child is
still in flight.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

from repro.obs import inspect as inspect_mod
from repro.obs.heartbeat import SNAPSHOT_SCHEMA


def fake_snapshot(**over):
    snap = {
        "schema": SNAPSHOT_SCHEMA, "kind": "heartbeat", "phase": "live",
        "seq": 3, "pid": 1234, "ops": 4200,
        "labels": {"workload": "jess", "size": 1, "system": "cg"},
        "uptime_s": 0.5,
        "heap": {"capacity_words": 1000, "live_words": 400,
                 "peak_live_words": 500, "occupancy": 0.4,
                 "fragmentation": 0.1, "live_objects": 40},
        "equilive": {"blocks": 5, "static_blocks": 1,
                     "largest_block": 100, "live_objects": 40},
        "recycle": {"parked_objects": 2, "parked_words": 20},
        "frames": [{"thread": "main", "frames": [
            {"frame_id": 1, "depth": 0, "method": "Main.main"},
            {"frame_id": 2, "depth": 1, "method": "Rete.fire"},
        ]}],
        "fault_stats": {},
        "metrics": {"counters": {"cg.objects_popped": 7}, "gauges": {},
                    "histograms": {}},
    }
    snap.update(over)
    return snap


def write_run(spool: Path, pid: int, snaps, ordinal=1) -> Path:
    spool.mkdir(parents=True, exist_ok=True)
    path = spool / f"run-{pid}-{ordinal}.jsonl"
    path.write_text("".join(json.dumps(s) + "\n" for s in snaps))
    return path


class TestSpoolReading:
    def test_read_snapshots_tolerates_garbage(self, tmp_path):
        path = tmp_path / "run-1-1.jsonl"
        path.write_text('{"ops": 1}\nnot json\n\n[1,2]\n{"ops": 2}\n')
        snaps = inspect_mod.read_snapshots(path)
        assert [s["ops"] for s in snaps] == [1, 2]

    def test_read_snapshots_missing_file(self, tmp_path):
        assert inspect_mod.read_snapshots(tmp_path / "gone.jsonl") == []

    def test_resolve_target_pid_picks_newest(self, tmp_path):
        old = write_run(tmp_path, 77, [fake_snapshot(seq=1)], ordinal=1)
        time.sleep(0.02)
        new = write_run(tmp_path, 77, [fake_snapshot(seq=2)], ordinal=2)
        assert inspect_mod.resolve_target("77", tmp_path) == new
        assert inspect_mod.resolve_target(str(old), tmp_path) == old
        assert inspect_mod.resolve_target("9999999", tmp_path) is None


class TestRendering:
    def test_render_snapshot_mentions_the_load_bearing_facts(self):
        text = inspect_mod.render_snapshot(fake_snapshot())
        assert "pid=1234" in text
        assert "jess:1:cg" in text
        assert "40.0% occupied" in text
        assert "5 live" in text
        assert "Rete.fire" in text
        assert "cg.objects_popped=7" in text

    def test_render_snapshot_degrades_on_sparse_data(self):
        text = inspect_mod.render_snapshot(
            {"schema": SNAPSHOT_SCHEMA, "kind": "heartbeat"}
        )
        assert "cell=?" in text


class TestFleetRollup:
    def test_statuses_and_aggregates(self, tmp_path):
        write_run(tmp_path, 10, [fake_snapshot(pid=10)], ordinal=1)
        write_run(tmp_path, 11,
                  [fake_snapshot(pid=11, phase="final",
                                 labels={"workload": "compress", "size": 1,
                                         "system": "cg"})],
                  ordinal=1)
        stale = write_run(tmp_path, 12, [fake_snapshot(pid=12)], ordinal=1)
        old = time.time() - 3600
        os.utime(stale, (old, old))
        rollup = inspect_mod.fleet_rollup(tmp_path, stale_after=10.0)
        agg = rollup["aggregate"]
        assert agg["runs"] == 3
        assert (agg["live"], agg["done"], agg["stale"]) == (1, 1, 1)
        assert agg["workers"] == [10, 11, 12]
        # done runs are excluded from aggregate pressure: 2 active runs.
        assert agg["live_words"] == 800
        assert agg["capacity_words"] == 2000
        assert agg["heap_pressure"] == pytest.approx(0.4)
        text = inspect_mod.render_fleet(rollup)
        assert "1 live, 1 done, 1 stale, 3 worker(s)" in text
        assert "compress:1:cg" in text
        assert "aggregate heap pressure" in text

    def test_empty_spool(self, tmp_path):
        rollup = inspect_mod.fleet_rollup(tmp_path)
        assert rollup["aggregate"]["runs"] == 0
        assert "0 run(s)" in inspect_mod.render_fleet(rollup)


class TestCli:
    def test_single_target_json(self, tmp_path, capsys):
        path = write_run(tmp_path, 55, [fake_snapshot(seq=1),
                                        fake_snapshot(seq=9)])
        assert inspect_mod.main([str(path), "--json"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["seq"] == 9

    def test_fleet_json_default_mode(self, tmp_path, capsys):
        write_run(tmp_path, 55, [fake_snapshot()])
        assert inspect_mod.main(["--spool", str(tmp_path), "--json"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["aggregate"]["runs"] == 1

    def test_missing_target_fails(self, tmp_path, capsys):
        assert inspect_mod.main(
            ["31337", "--spool", str(tmp_path)]
        ) == 1
        assert "no spool file" in capsys.readouterr().err

    def test_watch_count_renders_new_seqs(self, tmp_path, capsys):
        path = write_run(tmp_path, 55, [fake_snapshot(seq=1)])
        code = inspect_mod.main([str(path), "--watch", "--json",
                                 "--count", "1", "--timeout", "5"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["seq"] == 1


CHILD = textwrap.dedent("""
    import sys
    from repro import api
    # Loop forever: the parent inspects us mid-flight, then kills us.
    while True:
        api.run("jess", 1, "cg", heartbeat_every=200,
                heartbeat_spool=sys.argv[1])
""")


class TestCrossProcess:
    def test_inspect_attaches_to_in_flight_run(self, tmp_path):
        """Acceptance: render a live snapshot of a run in another process."""
        spool = tmp_path / "spool"
        env = dict(os.environ, PYTHONPATH="src")
        child = subprocess.Popen(
            [sys.executable, "-c", CHILD, str(spool)],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            cwd=Path(__file__).resolve().parents[2],
        )
        try:
            deadline = time.time() + 60
            snap = None
            while time.time() < deadline:
                target = inspect_mod.resolve_target(str(child.pid), spool)
                if target is not None:
                    snap = inspect_mod.latest_snapshot(target)
                    if snap is not None and snap.get("phase") == "live":
                        break
                assert child.poll() is None, "child died before heartbeating"
                time.sleep(0.05)
            assert snap is not None and snap["phase"] == "live", \
                "never saw a live in-flight snapshot"
            assert snap["pid"] == child.pid
            assert snap["labels"] == {"workload": "jess", "size": 1,
                                      "system": "cg"}
            # Workloads tick in bulk (mutator.tick(n)), so beats land at
            # the first op count >= the 200-op boundary, not exactly on it.
            assert snap["ops"] >= 200
            text = inspect_mod.render_snapshot(snap)
            assert "jess:1:cg" in text
            # And the fleet view sees the same run as live.
            rollup = inspect_mod.fleet_rollup(spool)
            assert child.pid in rollup["aggregate"]["workers"]
        finally:
            child.kill()
            child.wait()
