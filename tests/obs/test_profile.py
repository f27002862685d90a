"""PhaseProfiler: accumulation, VM wiring, and phases that never nest."""

import pytest

from repro import CGPolicy, Mutator, Runtime, RuntimeConfig
from repro.obs import NULL_PROFILER, PhaseProfiler
from repro.obs.profile import PHASE_CG_EVENTS, PHASE_MSA
from tests.conftest import define_test_classes


class TestAccumulation:
    def test_add_accumulates_seconds_and_samples(self):
        profiler = PhaseProfiler()
        profiler.add("msa", 0.25)
        profiler.add("msa", 0.75)
        profiler.add("codegen", 1.0)
        assert profiler.seconds == {"msa": 1.0, "codegen": 1.0}
        assert profiler.calls == {"msa": 2, "codegen": 1}


class TestNullProfiler:
    def test_disabled_and_inert(self):
        assert NULL_PROFILER.enabled is False
        NULL_PROFILER.add("msa", 1.0)
        assert NULL_PROFILER.seconds == {}
        assert NULL_PROFILER.calls == {}

    def test_runtime_defaults_to_null_profiler(self):
        runtime = Runtime(RuntimeConfig(heap_words=1 << 12))
        assert runtime.profiler is NULL_PROFILER
        assert runtime.collector.profiler is NULL_PROFILER


class TestVmWiring:
    def run_profiled(self):
        runtime = Runtime(
            RuntimeConfig(
                heap_words=420,
                cg=CGPolicy(recycling=True),
                tracing="marksweep",
                gc_period_ops=300,
                profile=True,
            )
        )
        define_test_classes(runtime.program)
        m = Mutator(runtime)
        with m.frame():
            keeper = m.new("Node")
            m.set_local(0, keeper)
            for _ in range(60):
                with m.frame():
                    node = m.new("Node")
                    m.putfield(node, "next", keeper)
                    m.root(node)
        return runtime

    def test_profiled_run_populates_phases(self):
        runtime = self.run_profiled()
        profiler = runtime.profiler
        assert profiler.enabled
        assert profiler.seconds[PHASE_CG_EVENTS] > 0.0
        assert profiler.calls[PHASE_CG_EVENTS] > 0
        # Every tracing-collector cycle is one MSA phase sample.
        assert profiler.calls[PHASE_MSA] == runtime.tracing.work.cycles

    def test_collector_wrappers_preserve_behaviour(self):
        profiled = self.run_profiled()
        config = RuntimeConfig(
            heap_words=420,
            cg=CGPolicy(recycling=True),
            tracing="marksweep",
            gc_period_ops=300,
        )
        plain = Runtime(config)
        define_test_classes(plain.program)
        m = Mutator(plain)
        with m.frame():
            keeper = m.new("Node")
            m.set_local(0, keeper)
            for _ in range(60):
                with m.frame():
                    node = m.new("Node")
                    m.putfield(node, "next", keeper)
                    m.root(node)
        a, b = profiled.collector.stats, plain.collector.stats
        assert a.objects_popped == b.objects_popped
        assert a.contaminations == b.contaminations
        assert a.objects_created == b.objects_created

    def test_profiled_run_takes_threaded_calls(self, monkeypatch):
        # Profiling must not fork the dispatch path: promoted callers enter
        # promoted callees directly in a profiled run as in a plain one,
        # so profiled timings describe the production path.  The runtime
        # services a direct call skips are wrapped on their classes before
        # the runtime exists, since generated code binds them at codegen;
        # both runs start cold so they promote at the same points.
        from repro.api import RunRequest, execute
        from repro.core.collector import ContaminatedCollector
        from repro.jvm.interpreter import Interpreter
        from repro.jvm.runtime import Runtime

        monkeypatch.setenv("REPRO_DISPATCH", "tiered")
        calls = {}
        for owner, name in ((Runtime, "push_frame"),
                            (Interpreter, "_invoke"),
                            (ContaminatedCollector, "on_frame_pop")):
            def counting(*args, _real=getattr(owner, name), _name=name):
                calls[_name] = calls.get(_name, 0) + 1
                return _real(*args)

            monkeypatch.setattr(owner, name, counting)

        def run(profile):
            calls.clear()
            result = execute(RunRequest("bc-calls", 1, "cg", profile=profile,
                                        cold_start=True))
            return result, dict(calls)

        profiled, profiled_calls = run(True)
        plain, plain_calls = run(False)
        assert profiled_calls == plain_calls
        # bc-calls size 1 makes 9,000 VM calls; all but the few before
        # promotion skip the runtime services.
        assert sum(plain_calls.values()) < 900, plain_calls
        assert profiled.ops == plain.ops
        assert profiled.cg_stats == plain.cg_stats

    def test_metrics_export_profile_gauges(self):
        from repro.api import run as run_workload

        result = run_workload("jess", size=1, system="cg", profile=True)
        gauges = result.metrics["gauges"]
        assert gauges.get(f"profile.{PHASE_MSA}_s", 0.0) >= 0.0
        assert gauges.get(f"profile.{PHASE_CG_EVENTS}_s", 0.0) > 0.0
        counters = result.metrics["counters"]
        assert counters.get(f"profile.{PHASE_CG_EVENTS}_samples", 0) > 0


#: Profiled runs whose phase timers must add up to no more than the run's
#: wall time: the four phases time disjoint stretches of the run.
PHASE_SUM_RUNS = {
    "bc-list": dict(workload="bc-list", size=1),
    "server": dict(workload="server", requests=400),
    "jess": dict(workload="jess", size=1),
    "bc-calls": dict(workload="bc-calls", size=1),
}


@pytest.mark.parametrize("cold", [True, False], ids=["cold", "warm"])
@pytest.mark.parametrize("name", sorted(PHASE_SUM_RUNS))
def test_phases_sum_to_at_most_wall(name, cold):
    # A phase timed inside another (the interpreter's whole dispatch
    # slices once held the CG events and the codegen they ran) counts the
    # same seconds twice: a profiled bc-list size-1 run booked 0.148 s of
    # phases inside 0.120 s of wall.
    from repro.api import RunRequest, execute

    request = PHASE_SUM_RUNS[name]
    if not cold:
        execute(RunRequest(system="cg", **request))  # warms the codegen cache
    result = execute(RunRequest(system="cg", profile=True, cold_start=cold,
                                **request))
    gauges = result.metrics["gauges"]
    phases = {k: v for k, v in gauges.items()
              if k.startswith("profile.") and k.endswith("_s")}
    assert phases, gauges
    assert sum(phases.values()) <= result.wall_seconds, (
        phases, result.wall_seconds)
