"""PhaseProfiler: accumulation, reporting, and VM wiring."""

from repro import CGPolicy, Mutator, Runtime, RuntimeConfig
from repro.obs import NULL_PROFILER, PhaseProfiler
from repro.obs.profile import (
    PHASE_CG_EVENTS,
    PHASE_INTERPRET,
    PHASE_MSA,
)
from tests.conftest import define_test_classes


class TestAccumulation:
    def test_add_accumulates_seconds_and_samples(self):
        profiler = PhaseProfiler()
        profiler.add("msa", 0.25)
        profiler.add("msa", 0.75)
        profiler.add("interpret", 1.0)
        assert profiler.seconds["msa"] == 1.0
        assert profiler.calls["msa"] == 2
        assert profiler.total_seconds() == 2.0

    def test_charge_depth(self):
        profiler = PhaseProfiler()
        profiler.charge_depth(3, 0.5)
        profiler.charge_depth(3, 0.5)
        profiler.charge_depth(0, 0.1)
        assert profiler.depth_seconds == {3: 1.0, 0: 0.1}

    def test_phase_context_manager_times_the_block(self):
        profiler = PhaseProfiler()
        with profiler.phase("work"):
            sum(range(1000))
        assert profiler.calls["work"] == 1
        assert profiler.seconds["work"] > 0.0

    def test_phase_charges_even_on_exception(self):
        profiler = PhaseProfiler()
        try:
            with profiler.phase("boom"):
                raise ValueError
        except ValueError:
            pass
        assert profiler.calls["boom"] == 1


class TestReporting:
    def test_to_dict_shape(self):
        profiler = PhaseProfiler()
        profiler.add("msa", 0.5)
        profiler.charge_depth(2, 0.5)
        report = profiler.to_dict()
        assert report["phases"] == {"msa": {"seconds": 0.5, "samples": 1}}
        assert report["depth_seconds"] == {"2": 0.5}

    def test_render_lists_phases_and_depth_bars(self):
        profiler = PhaseProfiler()
        profiler.add("interpret", 0.9)
        profiler.add("msa", 0.1)
        profiler.charge_depth(1, 0.9)
        text = profiler.render()
        assert "interpret" in text
        assert "msa" in text
        assert "depth   1" in text
        assert "#" in text

    def test_render_handles_empty_profile(self):
        assert "phase" in PhaseProfiler().render()


class TestNullProfiler:
    def test_disabled_and_inert(self):
        assert NULL_PROFILER.enabled is False
        NULL_PROFILER.add("msa", 1.0)
        NULL_PROFILER.charge_depth(1, 1.0)
        with NULL_PROFILER.phase("x"):
            pass
        assert NULL_PROFILER.total_seconds() == 0.0
        assert NULL_PROFILER.to_dict() == {"phases": {}, "depth_seconds": {}}

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

    def test_interpreter_charges_phase_and_depth(self):
        from repro import assemble

        source = """
        class Main
        method Main.main(0) locals=2
            const 500
            store 0
            const 0
            store 1
        top:
            load 0
            ifzero done
            iinc 1 1
            iinc 0 -1
            goto top
        done:
            load 1
            retval
        """
        runtime = Runtime(
            RuntimeConfig(heap_words=1 << 12, profile=True),
            program=assemble(source),
        )
        result = runtime.run("Main.main", [])
        assert result == 500
        profiler = runtime.profiler
        assert profiler.seconds[PHASE_INTERPRET] > 0.0
        assert profiler.calls[PHASE_INTERPRET] >= 1
        assert sum(profiler.depth_seconds.values()) > 0.0

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
