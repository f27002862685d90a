"""Self-tests of the benchmark, on tiny inputs.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import shutil
import subprocess
import sys

import pytest

import measure
from ledger import LAYERS, Ledger, targets
from make_reference import oracle_counters
from measure import (counters, import_repro, percentile, request_timer,
                     run_once)
from run import Gate

api = import_repro()

TINY = {"jess": {"size": 1}, "bc-calls": {"size": 1},
        "server": {"requests": 20}}


@pytest.fixture
def tiny(monkeypatch):
    for name, kwargs in TINY.items():
        monkeypatch.setitem(measure.WORKLOADS, name, kwargs)


def span_self_times(ledger):
    """Per-layer self time recomputed from the recorded spans alone."""
    rows = list(ledger.spans())
    child = [0.0] * len(rows)
    for _, _, parent, start, end, _ in rows:
        if parent >= 0:
            child[parent] += end - start
    per_layer = dict.fromkeys(LAYERS, 0.0)
    for sid, layer, _, start, end, _ in rows:
        per_layer[layer] += end - start - child[sid]
    return per_layer


def traced_run(workload, system="cg"):
    ledger = Ledger()
    samples = []
    with ledger.installed(api, workload):
        with request_timer(api, samples, ledger.set_request):
            wall, result = run_once(api, workload, system, 0)
    return ledger, wall, result


@pytest.mark.parametrize("workload", sorted(TINY))
def test_self_times_plus_residual_equal_traced_wall(tiny, workload):
    ledger, wall, _ = traced_run(workload)
    totals = ledger.totals()
    self_sum = sum(t["self_s"] for t in totals.values())
    residual = wall - self_sum
    # The running totals agree with the spans they were charged from, and
    # every span lies inside the one api.execute root.
    for name, got in span_self_times(ledger).items():
        assert got == pytest.approx(totals[name]["self_s"], abs=1e-6)
    roots = [end - start for _, _, parent, start, end, _ in ledger.spans()
             if parent < 0]
    assert len(roots) == 1
    assert self_sum == pytest.approx(roots[0], abs=1e-6)
    assert totals["api"]["calls"] == 1
    assert 0.0 <= residual < 0.05 * wall
    assert min(t["self_s"] for t in totals.values()) >= 0.0


def test_layers_confirm_workload_roles(tiny):
    jess = traced_run("jess")[0].totals()
    assert jess["jvm.interpreter"]["calls"] == 0
    assert jess["core.collector.on_alloc"]["calls"] > 0
    calls = traced_run("bc-calls")[0].totals()
    biggest = max(calls, key=lambda name: calls[name]["self_s"])
    assert biggest == "jvm.interpreter"


def test_server_spans_carry_request_ids(tiny):
    ledger = traced_run("server")[0]
    requests = {row[5] for row in ledger.spans()}
    assert requests == set(range(-1, 20))


def test_wrappers_are_removed_afterwards(tiny):
    originals = {(owner, name): getattr(owner, name)
                 for _, owner, name, _ in targets(api, "jess")}
    traced_run("jess")
    for (owner, name), original in originals.items():
        assert getattr(owner, name) is original


@pytest.mark.parametrize("workload", sorted(TINY))
def test_traced_and_untraced_counters_are_identical(tiny, workload):
    _, plain = run_once(api, workload, "cg", 0)
    _, _, traced = traced_run(workload)
    assert counters(api, traced) == counters(api, plain)


def test_server_wrapper_sees_every_request_and_not_boot(tiny):
    samples = []
    with request_timer(api, samples):
        run_once(api, "server", "jdk", 0)
    assert len(samples) == TINY["server"]["requests"]


def tiny_reference(workload="jess"):
    return {"counters": {workload: {
        system: [oracle_counters(api, workload, system, 0)]
        for system in measure.SYSTEMS}}}


def test_gate_passes_the_oracle_and_reports_a_perturbed_counter(tiny):
    reference = tiny_reference()
    gate = Gate(api, reference, "jess", 0)
    assert gate.run("cg") is not None
    assert gate.run("jdk") is not None
    assert (gate.attempted, gate.failed) == (2, 0)
    for key, bump in (("ops", 1), ("alloc_search_steps", 1),
                      ("peak_live_words", -1)):
        perturbed = tiny_reference()
        perturbed["counters"]["jess"]["cg"][0][key] += bump
        gate = Gate(api, perturbed, "jess", 0)
        assert gate.run("cg") is None
        assert gate.failed == 1
    perturbed = tiny_reference()
    perturbed["counters"]["jess"]["cg"][0]["cg_stats_sha1"] = "0" * 16
    assert Gate(api, perturbed, "jess", 0).run("cg") is None


def test_gate_requires_equal_ops_across_systems(tiny):
    reference = tiny_reference()
    reference["counters"]["jess"]["jdk"][0]["ops"] += 1
    gate = Gate(api, reference, "jess", 0)
    assert gate.run("cg") is None


def test_percentile_needs_ten_samples_beyond():
    assert percentile(list(range(4000)), 99) == 3959
    with pytest.raises(ValueError):
        percentile(list(range(400)), 99.9)
    with pytest.raises(ValueError):
        percentile(list(range(100)), 99)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(measure.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(measure.ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "jess", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
