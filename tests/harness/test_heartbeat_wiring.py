"""Harness heartbeat wiring: ambient settings and CLI flags.

The figure harness threads heartbeat settings *around* the cell cache —
they are observational, never part of a cell key.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.harness import cli, figures


@pytest.fixture(autouse=True)
def reset_heartbeat():
    yield
    figures.set_heartbeat(None)
    figures.set_fault_plan(None)
    figures.clear_cache()


class TestAmbientSettings:
    def test_cached_run_spools_with_labels(self, tmp_path):
        figures.set_heartbeat(25, str(tmp_path))
        figures.cached_run("compress", 1, "cg")
        files = [f for f in os.listdir(tmp_path) if f.startswith("run-")]
        assert files
        with open(tmp_path / files[0]) as fh:
            last = json.loads(fh.readlines()[-1])
        assert last["labels"] == {"workload": "compress", "size": 1,
                                  "system": "cg"}
        assert last["phase"] == "final"

    def test_heartbeat_is_not_part_of_the_cell_key(self, tmp_path):
        base = figures.cached_run("compress", 1, "cg")
        figures.set_heartbeat(25, str(tmp_path))
        again = figures.cached_run("compress", 1, "cg")
        # Same object: the cache hit means no re-run (and no spool file).
        assert again is base
        assert not list(tmp_path.iterdir())

    def test_disarmed_runs_do_not_spool(self, tmp_path):
        figures.set_heartbeat(None, str(tmp_path))
        figures.cached_run("compress", 1, "cg")
        assert not list(tmp_path.iterdir())


class TestCliFlags:
    def test_heartbeat_flags_arm_the_module(self, tmp_path, capsys):
        spool = tmp_path / "spool"
        assert cli.main(["4.1", "--heartbeat-every", "50",
                         "--spool", str(spool)]) == 0
        capsys.readouterr()
        assert any(spool.glob("run-*.jsonl"))
        figures.clear_cache()

    def test_bad_heartbeat_every_rejected(self, capsys):
        assert cli.main(["4.1", "--heartbeat-every", "0"]) == 2
        assert "heartbeat-every" in capsys.readouterr().err

    def test_plain_invocation_disarms(self, tmp_path, capsys):
        figures.set_heartbeat(50, str(tmp_path))
        assert cli.main(["--list"]) == 0
        assert figures._HEARTBEAT_EVERY is None

    def test_plain_invocation_disarms_the_fault_plan(self, capsys):
        assert cli.main(["--list", "--faults",
                         "heap.alloc:oom:after=100:count=inf"]) == 0
        assert figures._FAULT_PLAN is not None
        assert cli.main(["--list"]) == 0
        assert figures._FAULT_PLAN is None
