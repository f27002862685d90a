"""Harness heartbeat wiring: ambient settings, quarantine spool, CLI flags.

The figure harness threads heartbeat settings *around* the cell cache —
they are observational, never part of a cell key — and spools quarantine
records next to the run files so ``repro inspect --fleet`` sees both.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.faults import FaultPlan, FaultReport
from repro.harness import cli, figures
from repro.harness.pool import shutdown_shared_pool
from repro.obs import inspect as inspect_mod


@pytest.fixture(autouse=True)
def reset_heartbeat():
    yield
    figures.set_heartbeat(None)
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


class TestQuarantineSpool:
    def report(self):
        return FaultReport(site="harness.worker", kind="crash",
                           message="boom", context={"attempts": 3})

    def test_record_written_when_armed(self, tmp_path):
        figures.set_heartbeat(100, str(tmp_path))
        figures._spool_quarantine(("jess", 1, "cg", None, None, None),
                                  self.report())
        files = list(tmp_path.glob("quarantine-*.json"))
        assert len(files) == 1
        record = json.loads(files[0].read_text())
        assert record["cell"] == "jess:1:cg"
        assert (record["site"], record["kind"]) == ("harness.worker", "crash")

    def test_noop_when_disarmed(self, tmp_path):
        figures.set_heartbeat(None, str(tmp_path))
        figures._spool_quarantine(("jess", 1, "cg", None, None, None),
                                  self.report())
        assert not list(tmp_path.iterdir())

    def test_poisoned_prefetch_writes_one_record(self, tmp_path):
        figures.set_heartbeat(5000, str(tmp_path))
        figures.set_fault_plan(
            FaultPlan.parse("harness.worker:crash:cell=jess:count=inf"))
        try:
            figures.prefetch(["4.2"], 2, retries=0)
        finally:
            figures.set_fault_plan(None)
            shutdown_shared_pool()
        assert [key[:3] for key in figures.quarantined()] == [
            ("jess", 1, "cg-nogc")]
        files = [f.name for f in tmp_path.glob("quarantine-*")]
        assert files == ["quarantine-jess-1-cg-nogc.json"]
        rollup = inspect_mod.fleet_rollup(tmp_path)
        assert rollup["aggregate"]["quarantined"] == 1


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
