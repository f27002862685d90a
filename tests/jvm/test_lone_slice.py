"""Lone-thread slices keep the per-quantum schedule exactly.

``Interpreter.run_program`` gives a thread that runs alone
``LONE_SLICE_QUANTA`` quanta per dispatch call.  A ``SliceEnd`` cuts the
slice at the instruction that makes a second thread runnable (a ``spawn``,
or an invoke of a native whose callback spawned), and the scheduler
finishes that quantum before it rotates.  Every case here runs three
ways: with the shipped slices, with ``LONE_SLICE_QUANTA = 1`` (dispatch
re-entered every quantum) and under a test-side round-robin that steps one
instruction per call (:func:`run_per_instruction`).  All three must agree
on which thread allocated which object in what order, on the CG
statistics and census, on ``runtime.ops`` and on the instruction count —
under every dispatch leg and quantum, and with a heartbeat, a periodic GC,
the opcode histogram or an injected trap armed.
"""

import pytest

from repro import CGPolicy, Runtime, RuntimeConfig, assemble
from repro.api import config_for
from repro.faults import FaultPlan, FaultSpec, TrapFault
from repro.jvm.interpreter import VOID
from repro.jvm.model import JMethod
from repro.obs.events import Tracer
from repro.workloads.base import get_workload
from tests.conftest import assert_dispatch_parity

LIB = """
class Node
    field next

class Worker
method Worker.work(2) locals=3
    ; allocate n Nodes: 0=receiver, 1=n, 2=i
    const 0
    store 2
wloop:
    load 2
    load 1
    if_icmpge wdone
    new Node
    pop
    iinc 2 1
    goto wloop
wdone:
    return

method Worker.fork(2) locals=2
    ; spawn another worker, then churn like work
    new Worker
    load 1
    spawn work 2
    load 0
    load 1
    invokevirtual work 2
    return

class Main
method Main.churn(1) locals=2
    ; allocate n Nodes on the calling thread; returns n
    const 0
    store 1
cloop:
    load 1
    load 0
    if_icmpge cdone
    new Node
    pop
    iinc 1 1
    goto cloop
cdone:
    load 1
    retval

method Main.spin(1) locals=2
    ; n five-instruction laps, no allocation
    const 0
    store 1
sloop:
    load 1
    load 0
    if_icmpge sdone
    iinc 1 1
    goto sloop
sdone:
    return

method Main.spawner(0)
    new Worker
    const 40
    spawn work 2
    return
"""

SPAWN = "    new Worker\n    const 40\n    spawn work 2\n"
TAIL = "    const 40\n    invokestatic Main.churn\n    retval\n"

#: Where main's spawn lands: the 2,100th instruction, the last one of a
#: quantum for every quantum swept below.
QUANTUM_END = 2100


def pad(count):
    """``count`` instructions that do nothing."""
    lines = ["    const 0\n    pop\n"] * (count // 2)
    if count % 2:
        lines.append("    goto padded\npadded:\n")
    return "".join(lines)


def main(body):
    return LIB + "method Main.main(0) locals=1\n" + body


CASES = {
    "first_quantum": main(SPAWN + TAIL),
    # The spawn is instruction 3 of the SPAWN lines.
    "quantum_end": main(pad(QUANTUM_END - 3) + SPAWN + TAIL),
    # 1,500 laps: more than one lone slice at every swept quantum.
    "after_lone_slice": main(
        "    const 1500\n    invokestatic Main.spin\n" + SPAWN + TAIL),
    "nested_spawn": main(
        "    new Worker\n    const 30\n    spawn fork 2\n" + TAIL),
    # Main.cb is a native that calls Main.spawner back through NativeEnv.
    "native_callback": main(
        "    const 7\n    invokestatic Main.churn\n    pop\n"
        "    invokestatic Main.cb\n" + TAIL),
}


def spawn_from_native(env, args):
    env.call("Main.spawner", [])
    return VOID


def run_case(case, dispatch, promote_after, quantum, **config):
    program = assemble(CASES[case])
    program.lookup("Main").add_method(
        JMethod("cb", 0, native=spawn_from_native))
    config.setdefault("cg", CGPolicy(paranoid=True))
    return Runtime(RuntimeConfig(dispatch=dispatch,
                                 promote_after=promote_after,
                                 quantum=quantum, tracer=Tracer(), **config),
                   program=program)


def run_per_instruction(rt, quantum):
    """The round-robin schedule with one ``step_n`` call per instruction.

    An oracle independent of ``run_program``'s slices and top-ups: each
    thread retires ``quantum`` instructions, then the scheduler rotates.
    Like ``run_program``, it skips ``next_thread()`` (and so leaves the
    cursor alone) while only one thread is registered.
    """
    interp = rt.interpreter
    interp._push_call(rt.main_thread, "Main.main", [])
    threads = rt.scheduler._threads
    while True:
        if len(threads) == 1:
            thread = threads[0]
            if not (thread.alive and thread.stack.frames):
                break
        else:
            thread = rt.scheduler.next_thread()
            if thread is None:
                break
        for _ in range(quantum):
            if not interp.step_n(thread, 1):
                break
    return rt.main_thread.result


#: How a run is driven: ``run_program`` with the shipped lone slices, with
#: ``LONE_SLICE_QUANTA = 1``, and :func:`run_per_instruction`.
SCHEDULES = ("lone_slices", "one_quantum", "per_instruction")


def run_schedule(schedule, rt, quantum):
    if schedule == "per_instruction":
        return run_per_instruction(rt, quantum)
    if schedule == "one_quantum":
        rt.interpreter.LONE_SLICE_QUANTA = 1
    return rt.run("Main.main")


def outcome(rt, result):
    """What the schedule decides, plus the run's determinism counters."""
    news = [(event.data["thread"], event.data["handle"])
            for event in rt.tracer if event.kind == "new"]
    return (result, news, rt.collector.stats, rt.collector.final_census(),
            rt.ops, rt.interpreter.instructions_executed)


def schedules_agree(case, quantum, observe=None, **config):
    """``run(dispatch, promote_after)`` for :func:`assert_dispatch_parity`
    that also requires every :data:`SCHEDULES` entry to agree.

    ``observe(rt)`` may arm extra recording before the run and returns a
    callable whose result joins the outcome.
    """
    def run(dispatch, promote_after):
        results = {}
        for schedule in SCHEDULES:
            rt = run_case(case, dispatch, promote_after, quantum, **config)
            extra = observe(rt) if observe is not None else (lambda: None)
            result = run_schedule(schedule, rt, quantum)
            results[schedule] = (outcome(rt, result), extra())
            if schedule == "lone_slices":
                sliced_rt = rt
        for schedule in SCHEDULES:
            assert results[schedule] == results["lone_slices"], (
                schedule, dispatch, promote_after)
        return results["lone_slices"], sliced_rt

    return run


@pytest.mark.parametrize("quantum", [1, 3, 7, 100])
@pytest.mark.parametrize("case", sorted(CASES))
def test_lone_slices_keep_the_quantum_schedule(case, quantum):
    assert_dispatch_parity(schedules_agree(case, quantum))


def test_cases_interleave_threads():
    # Sanity on the scenarios: every case really runs a second thread
    # that allocates, so the ``new`` order depends on the schedule.
    for case in CASES:
        rt = run_case(case, "table", RuntimeConfig.promote_after, 7)
        assert rt.run("Main.main") == 40
        threads = {t for t, _ in outcome(rt, None)[1]}
        assert len(threads) >= 2, case


def test_spawn_lands_on_a_quantum_end():
    # ``quantum_end`` must put the spawn exactly at QUANTUM_END: a trap
    # after QUANTUM_END instructions finds the worker registered, a trap
    # one instruction earlier does not.
    plan = FaultPlan([FaultSpec("interp.step", "trap", after=QUANTUM_END)])
    rt = run_case("quantum_end", "table", RuntimeConfig.promote_after, 100,
                  faults=plan)
    with pytest.raises(TrapFault):
        rt.run("Main.main")
    assert len(rt.threads()) == 2
    plan = FaultPlan([FaultSpec("interp.step", "trap",
                                after=QUANTUM_END - 1)])
    rt = run_case("quantum_end", "table", RuntimeConfig.promote_after, 100,
                  faults=plan)
    with pytest.raises(TrapFault):
        rt.run("Main.main")
    assert len(rt.threads()) == 1


class TestObservedRuns:
    """Observers that act mid-slice see the per-quantum schedule too."""

    CASE = "native_callback"
    QUANTUM = 7

    def test_heartbeat_beats_at_identical_op_counts(self, tmp_path):
        def observe(rt):
            beats = []
            beat = rt.heartbeat.beat

            def recording(runtime, phase="live"):
                depths = [len(t.stack.frames) for t in runtime.threads()]
                beats.append((runtime.ops, runtime.heap.occupancy(), depths))
                return beat(runtime, phase)

            rt.heartbeat.beat = recording
            return lambda: beats

        assert_dispatch_parity(schedules_agree(
            self.CASE, self.QUANTUM, observe, heartbeat_every=50,
            heartbeat_spool=str(tmp_path)))

    def test_periodic_gc(self):
        assert_dispatch_parity(schedules_agree(
            self.CASE, self.QUANTUM,
            lambda rt: lambda: rt.tracing.work.cycles,
            gc_period_ops=60, heap_words=4096))

    @pytest.mark.parametrize("after", [120, 250])
    def test_trap_index(self, after):
        # The trap lands after the native's callback spawned, while the
        # two threads interleave.
        def run(dispatch, promote_after):
            stops = {}
            for schedule in SCHEDULES:
                plan = FaultPlan([FaultSpec("interp.step", "trap",
                                            after=after)])
                rt = run_case(self.CASE, dispatch, promote_after,
                              self.QUANTUM, faults=plan)
                with pytest.raises(TrapFault):
                    run_schedule(schedule, rt, self.QUANTUM)
                assert len(rt.threads()) == 2
                assert rt.interpreter.instructions_executed == after
                stops[schedule] = (outcome(rt, None), dict(rt.fault_stats))
                if schedule == "lone_slices":
                    sliced_rt = rt
            for schedule in SCHEDULES:
                assert stops[schedule] == stops["lone_slices"], schedule
            return stops["lone_slices"], sliced_rt

        assert_dispatch_parity(run)


def test_bc_calls_enters_dispatch_rarely():
    # Quantum boundaries are dispatch-loop entries only while two threads are
    # runnable; bc-calls' worker is done early, so main runs in lone
    # slices.  At one visit per quantum this count is ~5,900.
    wl = get_workload("bc-calls", seed=2000)
    rt = Runtime(config_for("cg", wl.heap_words(10)))
    interp = rt.interpreter
    entries = []
    step_n = interp.step_n

    def counting(thread, budget, stop_depth=0):
        entries.append(budget)
        return step_n(thread, budget, stop_depth)

    interp.step_n = counting
    wl.execute(rt, 10)
    assert len(entries) <= 300
