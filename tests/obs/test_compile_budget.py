"""Compile-budget accounting surfaces: metrics, snapshots, request latency.

The interpreter's always-on compile counters (codegen, promotions, and
the link + codegen wall time) feed three read-only surfaces —
``vm.compile.*`` in the metrics registry, the ``compile`` section of the
``cg-snapshot/6`` schema, and the per-request ``compile_ms`` attribution in
``RunResult.latency``.  All three must be pure observation: armed or
not, a run's counters stay bit-identical.  A cold run codegens each
promoted method exactly once.
"""

import pytest

from repro import CGPolicy, Runtime, RuntimeConfig, assemble
from repro.api import RunRequest, execute
from repro.obs.heartbeat import LiveSnapshot, runtime_snapshot
from repro.obs.metrics import collect_runtime_metrics

HOT_SOURCE = (
    "class Main\nmethod Main.main(0)\n"
    + "    const 0\n    store 0\n    const 0\n    store 1\n"
    + "loop:\n"
    + "    load 0\n    const 400\n    if_icmpge done\n"
    + "    load 0\n    invokestatic Main.step\n"
    + "    load 1\n    add\n    store 1\n"
    + "    iinc 0 1\n    goto loop\n"
    + "done:\n    load 1\n    retval\n"
    + "method Main.step(1)\n"
    + "    load 0\n    const 2\n    mul\n    retval\n"
)


def run_tiered(**config_kwargs):
    config_kwargs.setdefault("cg", CGPolicy(paranoid=True))
    config_kwargs.setdefault("dispatch", "tiered")
    rt = Runtime(RuntimeConfig(**config_kwargs),
                 program=assemble(HOT_SOURCE))
    result = rt.run("Main.main", [])
    assert result == sum(2 * i for i in range(400))
    return rt


class TestMetricsSurface:
    def test_vm_compile_counters_present(self):
        rt = run_tiered(promote_after=4)
        snapshot = collect_runtime_metrics(rt).snapshot()
        assert snapshot["vm.compile.codegenned"] > 0
        assert snapshot["vm.compile.promoted"] > 0
        assert snapshot["vm.compile.ms"] > 0.0

    def test_cold_tiered_run_codegens_nothing(self):
        # Cold profile AND cold caches: a warm codegen cache would
        # promote on the first visit regardless of the threshold.
        from repro.jvm.compiledcode import clear_codegen_caches

        clear_codegen_caches()
        rt = run_tiered(promote_after=1_000_000)
        snapshot = collect_runtime_metrics(rt).snapshot()
        assert snapshot["vm.compile.codegenned"] == 0
        assert snapshot["vm.compile.promoted"] == 0

    def test_compiled_system_promotes_every_method(self):
        # cg-compiled's setting, promote_after=1, on cold caches: every
        # method entered (Main.main and Main.step) is codegenned at its
        # first visit.
        from repro.jvm.compiledcode import clear_codegen_caches

        clear_codegen_caches()
        rt = run_tiered(promote_after=1)
        counters = collect_runtime_metrics(rt).snapshot()
        assert counters["vm.compile.promoted"] == 2
        assert counters["vm.compile.codegenned"] == 2

    @pytest.mark.parametrize("request_kwargs", [
        dict(workload="bc-calls", size=1),
        dict(workload="bc-loop", size=1),
        dict(workload="server", requests=100),
    ], ids=["bc-calls", "bc-loop", "server"])
    def test_cold_run_codegens_each_promoted_method_once(
            self, request_kwargs, monkeypatch):
        # Pinned to tiered (the suite may sweep the default to table): a
        # promoted method is generated once per process, never again.
        monkeypatch.setenv("REPRO_DISPATCH", "tiered")
        counters = execute(RunRequest(system="cg", cold_start=True,
                                      **request_kwargs)).metrics["counters"]
        assert counters["vm.compile.promoted"] > 0
        assert (counters["vm.compile.codegenned"]
                == counters["vm.compile.promoted"])

    def test_unstarted_runtime_has_no_compile_metrics(self):
        # No interpreter yet -> the compile block is absent, not zeroed.
        rt = Runtime(RuntimeConfig())
        snapshot = collect_runtime_metrics(rt).snapshot()
        assert "vm.compile.promoted" not in snapshot


class TestSnapshotSurface:
    def test_compile_section_in_snapshot(self):
        rt = run_tiered(promote_after=4)
        data = runtime_snapshot(rt)
        assert data["schema"] == "cg-snapshot/6"
        compile_section = data["compile"]
        assert compile_section["methods_promoted"] > 0
        assert compile_section["codegen_ms"] >= 0.0
        assert set(compile_section) == {
            "methods_codegenned", "methods_promoted", "codegen_ms",
        }

    def test_compile_section_none_before_interpreter(self):
        rt = Runtime(RuntimeConfig())
        assert runtime_snapshot(rt)["compile"] is None

    def test_live_snapshot_serializes(self):
        rt = run_tiered(promote_after=4)
        snap = LiveSnapshot.capture(rt)
        assert snap.to_json()  # round-trips through json.dumps
        assert snap.data["compile"]["methods_promoted"] > 0


class TestRequestAttribution:
    def run_profiled(self, system):
        return execute(RunRequest("server", system=system, requests=30,
                                  profile=True, cold_start=True))

    def test_latency_carries_compile_fields(self):
        latency = self.run_profiled("cg").latency
        assert latency["requests"] == 30
        assert set(latency["compile_ms"]) == {"p50_ms", "p99_ms",
                                              "p999_ms", "max_ms"}
        assert latency["compile_total_ms"] >= 0.0
        assert latency["first_request_ms"] > 0.0
        assert latency["first_request_compile_ms"] >= 0.0
        assert (latency["first_request_compile_ms"]
                <= latency["compile_total_ms"] + 1e-9)

    def test_compiled_system_pays_compile_up_front(self):
        # Eager per-method codegen lands inside the earliest request
        # windows, so the compiled system must attribute some compile
        # time to requests; counters still match the tiered default.
        tiered = self.run_profiled("cg")
        compiled = self.run_profiled("cg-compiled")
        assert compiled.ops == tiered.ops
        assert compiled.latency["compile_total_ms"] > 0.0

    def test_accounting_never_changes_counters(self):
        profiled = self.run_profiled("cg")
        plain = execute(RunRequest("server", system="cg", requests=30))
        assert plain.ops == profiled.ops
        assert plain.objects_created == profiled.objects_created
