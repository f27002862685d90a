"""Every armed site ends in recovery or a structured report — never a bare
traceback.  One test class per site; heap.alloc covers each cascade tier."""

import json

import pytest

from repro import (
    CGPolicy,
    FaultPlan,
    FaultSpec,
    Mutator,
    OutOfMemoryError,
    Runtime,
    RuntimeConfig,
    assemble,
)
from repro.faults import NativeCallFault, TrapFault
from repro.jvm.model import JMethod
from repro.obs.metrics import collect_runtime_metrics
from tests.conftest import (
    assert_clean,
    assert_dispatch_parity,
    define_test_classes,
)


def faulted_runtime(plan, cg=None, heap_words=1 << 14):
    config = RuntimeConfig(
        heap_words=heap_words,
        cg=cg or CGPolicy(paranoid=True),
        tracing="marksweep",
        faults=plan,
    )
    runtime = Runtime(config)
    define_test_classes(runtime.program)
    return runtime


class TestHeapAllocCascade:
    def test_tier_recycle_adopts_parked_storage(self):
        plan = FaultPlan([FaultSpec("heap.alloc", "oom", after=1)])
        rt = faulted_runtime(plan, cg=CGPolicy(recycling=True, paranoid=True))
        m = Mutator(rt)
        with m.frame():
            with m.frame():
                m.new("Node")  # parked in the recycle list at the pop
            repl = m.new("Node")  # injected failure -> recycled donor
            assert not repl.freed
        assert rt.fault_stats["injected.heap.alloc"] == 1
        assert rt.fault_stats["recovered.recycle"] == 1
        assert rt.collector.stats.objects_recycled == 1
        assert_clean(rt)

    def test_tier_emergency_flushes_recycle_list(self):
        plan = FaultPlan([FaultSpec("heap.alloc", "oom", after=1)])
        rt = faulted_runtime(plan, cg=CGPolicy(recycling=True, paranoid=True))
        m = Mutator(rt)
        with m.frame():
            with m.frame():
                m.new("Node")  # parked donor, far too small for the array
            big = m.new_array(64)  # injected failure -> emergency pass
            assert not big.freed
            # The pass flushed the parked donor back to the free list.
            assert len(rt.collector.recycle) == 0
        assert rt.fault_stats["injected.heap.alloc"] == 1
        assert rt.fault_stats["recovered.emergency"] == 1
        assert_clean(rt)

    def test_tier_backstop_runs_tracing_collector(self):
        plan = FaultPlan([FaultSpec("heap.alloc", "oom")])
        rt = faulted_runtime(plan, cg=CGPolicy(recycling=False, paranoid=True))
        m = Mutator(rt)
        cycles_before = rt.tracing.work.cycles
        with m.frame():
            node = m.new("Node")  # very first allocation is sabotaged
            assert not node.freed
        assert rt.fault_stats["injected.heap.alloc"] == 1
        assert rt.fault_stats["recovered.backstop"] == 1
        assert rt.tracing.work.cycles == cycles_before + 1
        assert_clean(rt)

    def test_unrecoverable_oom_carries_crash_dump(self):
        plan = FaultPlan([FaultSpec("heap.alloc", "oom", count=None)])
        rt = faulted_runtime(plan, cg=CGPolicy(recycling=False, paranoid=True))
        m = Mutator(rt)
        with pytest.raises(OutOfMemoryError) as excinfo:
            with m.frame():
                m.new("Node")
        dump = excinfo.value.dump
        assert isinstance(dump, dict)
        json.dumps(dump)  # serializable end to end
        assert dump["site"] == "heap.alloc"
        assert dump["heap"]["capacity_words"] == rt.heap.capacity
        assert dump["equilive"]["blocks"] >= 0
        assert dump["recycle"]["parked_objects"] == 0
        assert dump["retained"]["mark_visits"] >= 0
        assert dump["frames"][0]["thread"] == "main"
        assert dump["fault_plan"]["fired"]["heap.alloc"] >= 2
        assert dump["request"]["cls"] == "Node"
        assert rt.fault_stats["oom.dumps"] == 1

    def test_recovery_preserves_mutator_counters(self):
        def busy(runtime):
            m = Mutator(runtime)
            with m.frame():
                keeper = m.new("Node")
                for _ in range(20):
                    with m.frame():
                        a = m.new("Node")
                        m.putfield(keeper, "next", a)
            return runtime.collector.stats

        clean = busy(faulted_runtime(None,
                                     cg=CGPolicy(recycling=True,
                                                 paranoid=True)))
        plan = FaultPlan([FaultSpec("heap.alloc", "oom", after=5)])
        rt = faulted_runtime(plan, cg=CGPolicy(recycling=True, paranoid=True))
        faulted = busy(rt)
        assert rt.fault_stats["injected.heap.alloc"] == 1
        assert faulted.objects_created == clean.objects_created
        assert faulted.contaminations == clean.contaminations
        # The backstop GC may reclaim some objects the frame pops would
        # have (collected_by_msa); nothing is lost or double-counted.
        assert (faulted.objects_popped + faulted.collected_by_msa
                == clean.objects_popped + clean.collected_by_msa)
        assert_clean(rt)

    def test_fault_metrics_folded_only_when_armed(self):
        plan = FaultPlan([FaultSpec("heap.alloc", "oom")])
        rt = faulted_runtime(plan, cg=CGPolicy(recycling=False, paranoid=True))
        m = Mutator(rt)
        with m.frame():
            m.new("Node")
        counters = collect_runtime_metrics(rt).counters
        assert counters["fault.injected.heap.alloc"] == 1
        assert counters["fault.recovered.backstop"] == 1

        clean = faulted_runtime(None)
        m2 = Mutator(clean)
        with m2.frame():
            m2.new("Node")
        assert not any(name.startswith("fault.")
                       for name in collect_runtime_metrics(clean).counters)


MAIN = "class Main\nmethod Main.main(0)\n"
STRAIGHT_LINE = MAIN + "    const 1\n    pop\n" * 40 + "    const 7\n    retval\n"


def assembled_runtime(plan):
    program = assemble(STRAIGHT_LINE)
    config = RuntimeConfig(cg=CGPolicy(paranoid=True), faults=plan)
    return Runtime(config, program=program)


class TestInterpStepTrap:
    def test_trap_fires_at_exact_instruction(self):
        plan = FaultPlan([FaultSpec("interp.step", "trap", after=10)])
        rt = assembled_runtime(plan)
        with pytest.raises(TrapFault) as excinfo:
            rt.run("Main.main")
        report = excinfo.value.report
        assert report.site == "interp.step"
        assert report.kind == "trap"
        assert rt.interpreter.instructions_executed == 10
        assert report.dump is not None
        json.dumps(report.dump)
        assert rt.fault_stats["injected.interp.step"] == 1

    def test_trap_beyond_program_never_fires(self):
        plan = FaultPlan([FaultSpec("interp.step", "trap", after=10_000)])
        rt = assembled_runtime(plan)
        assert rt.run("Main.main") == 7
        assert rt.fault_stats["injected.interp.step"] == 0

    def test_armed_but_unfired_plan_matches_clean_run(self):
        clean = assembled_runtime(None)
        assert clean.run("Main.main") == 7
        plan = FaultPlan([FaultSpec("interp.step", "trap", after=10_000)])
        armed = assembled_runtime(plan)
        assert armed.run("Main.main") == 7
        assert (armed.interpreter.instructions_executed
                == clean.interpreter.instructions_executed)
        assert armed.ops == clean.ops


class TestFaultDispatchParity:
    """Faults fire at identical instruction indices across dispatch legs.

    The fault wrapper slices the budget at the firing point, so whatever
    the ``after`` index, table and every tiered leg (see
    ``tests.conftest.DISPATCH_LEGS``) stop at exactly the same instruction
    with the same fault_stats.  Generated code runs multi-instruction
    traces: the budget slice must refuse a trace it cannot finish and fall
    back to single-stepped table handlers so the trap still lands on the
    exact index.  Promotion adds a boundary: the trap index must be unchanged
    whether it lands before or after a method's promotion.
    """

    # Straight-line load/const/add/store blocks: plenty of instruction
    # pairs for the trap index to land in the middle of.
    PAIRED_LINE = (
        MAIN
        + "    const 0\n    store 0\n"
        + "    load 0\n    const 1\n    add\n    store 0\n" * 12
        + "    load 0\n    retval\n"
    )

    ALLOC_LOOP = (
        "class Node\nfield next\n"
        + MAIN
        + "    const 0\n    store 0\n"
        + "loop:\n"
        + "    load 0\n    const 30\n    if_icmpge done\n"
        + "    new Node\n    pop\n"
        + "    iinc 0 1\n    goto loop\n"
        + "done:\n    load 0\n    retval\n"
    )

    def run_faulted(self, source, plan, dispatch, heap_words=1 << 14,
                    **config_kwargs):
        program = assemble(source)
        config = RuntimeConfig(
            heap_words=heap_words,
            cg=CGPolicy(paranoid=True),
            faults=plan,
            dispatch=dispatch,
            **config_kwargs,
        )
        return Runtime(config, program=program)

    @pytest.mark.parametrize("after", [1, 4, 5, 6, 17, 40])
    def test_trap_index_identical_across_tiers(self, after):
        def run(dispatch, promote_after):
            plan = FaultPlan([FaultSpec("interp.step", "trap", after=after)])
            rt = self.run_faulted(self.PAIRED_LINE, plan, dispatch,
                                  promote_after=promote_after)
            with pytest.raises(TrapFault):
                rt.run("Main.main")
            assert rt.interpreter.instructions_executed == after
            return (rt.interpreter.instructions_executed,
                    dict(rt.fault_stats)), rt

        assert_dispatch_parity(run)

    @pytest.mark.parametrize("after", [3, 25, 120, 400])
    def test_trap_index_unchanged_across_promotion(self, after):
        # A hot loop under aggressive promotion (promote_after=2): early
        # ``after`` values land while Main.main is still on the table
        # handlers, late ones after it has been promoted to generated code.
        # Either side of the boundary, the trap must land on exactly the
        # same instruction index the table oracle stops at.
        hot_loop = (
            MAIN
            + "    const 0\n    store 0\n"
            + "loop:\n"
            + "    load 0\n    const 200\n    if_icmpge done\n"
            + "    iinc 0 1\n    goto loop\n"
            + "done:\n    load 0\n    retval\n"
        )
        stops = {}
        for dispatch in ("table", "tiered"):
            plan = FaultPlan([FaultSpec("interp.step", "trap", after=after)])
            rt = self.run_faulted(hot_loop, plan, dispatch,
                                  promote_after=2)
            with pytest.raises(TrapFault):
                rt.run("Main.main")
            stops[dispatch] = (
                rt.interpreter.instructions_executed,
                dict(rt.fault_stats),
            )
            assert rt.interpreter.instructions_executed == after
        assert stops["tiered"] == stops["table"]
        # Sanity on the scenario itself: the late trap indices really do
        # land after promotion (the early ones before it).
        rt_clean = self.run_faulted(hot_loop, FaultPlan([]), "tiered",
                                    promote_after=2)
        assert rt_clean.run("Main.main") == 200
        assert rt_clean.interpreter.methods_promoted > 0

    def test_heap_alloc_cascade_identical_across_tiers(self):
        def run(dispatch, promote_after):
            plan = FaultPlan([FaultSpec("heap.alloc", "oom", after=5)])
            rt = self.run_faulted(self.ALLOC_LOOP, plan, dispatch,
                                  heap_words=4096,
                                  promote_after=promote_after)
            assert rt.run("Main.main") == 30
            assert rt.fault_stats["injected.heap.alloc"] == 1
            return (
                dict(rt.fault_stats),
                rt.interpreter.instructions_executed,
                rt.ops,
                rt.collector.stats,
            ), rt

        assert_dispatch_parity(run)


class TestNativeCallEscape:
    NATIVE_SOURCE = """
    class Main
    method Main.main(0)
        const 20
        invokestatic Main.twice
        retval
    """

    def make_vm(self, plan):
        program = assemble(self.NATIVE_SOURCE)
        rt = Runtime(
            RuntimeConfig(cg=CGPolicy(paranoid=True), faults=plan),
            program=program,
        )
        cls = rt.program.lookup("Main")
        cls.add_method(
            JMethod("twice", 1, native=lambda env, args: args[0] * 2)
        )
        return rt

    def test_native_invocation_fails_structurally(self):
        plan = FaultPlan([FaultSpec("native.call", "escape")])
        rt = self.make_vm(plan)
        with pytest.raises(NativeCallFault) as excinfo:
            rt.run("Main.main")
        report = excinfo.value.report
        assert report.site == "native.call"
        assert "Main.twice" in report.message
        assert rt.fault_stats["injected.native.call"] == 1

    def test_unfired_plan_leaves_native_call_intact(self):
        plan = FaultPlan([FaultSpec("native.call", "escape", after=50)])
        rt = self.make_vm(plan)
        assert rt.run("Main.main") == 40

    def test_callback_into_java_fails_structurally(self):
        from repro.jvm.natives import NativeEnv

        plan = FaultPlan([FaultSpec("native.call", "escape", after=1)])
        rt = self.make_vm(plan)  # hit 0: the invokestatic boundary
        assert rt.run("Main.main") == 40
        env = NativeEnv(rt, rt.main_thread)
        with pytest.raises(NativeCallFault) as excinfo:
            env.call("Main.main", [])  # hit 1 fires at the callback
        assert excinfo.value.report.context["method"] == "Main.main"
