"""Direct calls between promoted methods: parity with the table oracle.

A generated invoke site pushes its callee's frame inline and calls the
callee's generated ``run`` in place; generated returns pop their own
frame inline, raising the CG frame-pop event only for a frame with blocks
or a tracing collector.  Each ``invokevirtual`` site keeps a receiver
class -> method table.  None of this may show in what a run counts: every
case here runs on every dispatch leg (``table``, and ``tiered`` never
promoting, promoting at first visit and at the default threshold), once
with a :class:`Tracer` armed (the event list must match, empty-frame
``frame_pop`` events included) and once without (the inline fast path).
"""

import pytest

from repro import CGPolicy, Runtime, RuntimeConfig, assemble
from repro.api import RunRequest, execute
from repro.faults import FaultPlan, FaultSpec, TrapFault
from repro.jvm.errors import NullPointerError, VerifyError
from repro.jvm.interpreter import VOID, Interpreter
from repro.jvm.model import JMethod
from repro.obs.events import Tracer
from tests.conftest import assert_dispatch_parity

LIB = "class Node\nfield next\n"


def build(source, dispatch, promote_after, natives=(), traced=True,
          **config):
    program = assemble(source)
    for cls, method in natives:
        program.lookup(cls).add_method(method)
    config.setdefault("cg", CGPolicy(paranoid=True))
    if traced:
        config["tracer"] = Tracer()
    return Runtime(RuntimeConfig(dispatch=dispatch,
                                 promote_after=promote_after, **config),
                   program=program)


def outcome(rt, result):
    """What a run returns and counts, plus its trace when one is armed."""
    events = [(event.kind, event.data) for event in rt.tracer]
    return (result, rt.ops, rt.interpreter.instructions_executed,
            rt.collector.stats, rt.collector.final_census(),
            rt.frame_ids.issued, events)


def run_both(source, dispatch, promote_after, args=(), expect=None,
             natives=(), observe=None, **config):
    """Run ``Main.main`` traced and untraced; return both outcomes and the
    untraced runtime.  ``expect`` is an exception type the run must raise
    (its outcome then has ``None`` for the result); ``observe(rt)`` arms
    extra recording and returns a callable whose result joins the
    outcome."""
    outcomes = []
    for traced in (True, False):
        rt = build(source, dispatch, promote_after, natives, traced,
                   **config)
        extra = observe(rt) if observe is not None else (lambda: None)
        if expect is None:
            result = rt.run("Main.main", list(args))
        else:
            with pytest.raises(expect):
                rt.run("Main.main", list(args))
            result = None
        outcomes.append((outcome(rt, result), extra()))
    traced_outcome, plain_outcome = outcomes
    # Tracing is pure observation: the counters agree without it.
    assert traced_outcome[0][:-1] == plain_outcome[0][:-1]
    assert plain_outcome[0][-1] == []
    return outcomes, rt


def empty_frame_pops(outcomes):
    events = outcomes[0][0][-1]
    return [data for kind, data in events
            if kind == "frame_pop" and data["blocks"] == 0]


# ---------------------------------------------------------------------------
# Per-site receiver tables
# ---------------------------------------------------------------------------

#: One ``invokevirtual f 1`` site cycling A, B, C over a 4-slot array whose
#: last slot holds ``Bad``, whose ``f`` takes two args: the site must raise
#: VerifyError the first time it meets a Bad receiver, at iteration
#: ``bad_at`` (before or after the caller is promoted).
POLY = LIB + """
class Main
class Shape
class A extends Shape
class B extends Shape
class C extends Shape
class Bad extends Shape
method A.f(1)
    const 1
    retval
method B.f(1) locals=1
    new Node
    pop
    const 2
    retval
method C.f(1)
    const 3
    retval
method Bad.f(2)
    const 9
    retval
method Main.main(1) locals=4
    ; 0=bad_at, 1=i, 2=arr, 3=sum
    const 4
    newarray
    store 2
    load 2
    const 0
    new A
    aastore
    load 2
    const 1
    new B
    aastore
    load 2
    const 2
    new C
    aastore
    load 2
    const 3
    new Bad
    aastore
    const 0
    store 1
    const 0
    store 3
loop:
    load 1
    const 400
    if_icmpge done
    load 2
    load 1
    const 3
    mod
    load 1
    load 0
    if_icmpne pick
    pop
    const 3
pick:
    aaload
    invokevirtual f 1
    load 3
    add
    store 3
    iinc 1 1
    goto loop
done:
    load 3
    retval
"""


@pytest.mark.parametrize("bad_at", [-1, 5, 300])
def test_site_cycling_receiver_classes(bad_at):
    expect = None if bad_at < 0 else VerifyError

    def run(dispatch, promote_after):
        outcomes, rt = run_both(POLY, dispatch, promote_after, [bad_at],
                                expect=expect)
        if bad_at < 0:
            assert outcomes[0][0][0] == 400 // 3 * 6 + 1
        if dispatch == "tiered":
            main = rt.program.resolve("Main.main")
            tables = rt.interpreter._ccache[main].quick.vcalls
            seen = {cls.name for table in tables.values() for cls in table}
            # A class that fails the nargs check is never cached.
            assert seen == {"A", "B", "C"}
        assert empty_frame_pops(outcomes)
        return outcomes, rt

    assert_dispatch_parity(run)


@pytest.mark.parametrize("receiver, error", [
    ("aconst_null", NullPointerError),
    ("const 5", AttributeError),
])
def test_non_handle_receiver_deopts(receiver, error):
    # A receiver still in the symbolic window may be a literal; the site
    # deopts and the closure slot raises what the table loop raises.
    source = ("class Main\nclass A\nmethod A.f(1)\n    const 1\n    retval\n"
              f"method Main.main(0)\n    {receiver}\n    invokevirtual f 1\n"
              "    retval\n")

    def run(dispatch, promote_after):
        return run_both(source, dispatch, promote_after, expect=error)

    assert_dispatch_parity(run)


# ---------------------------------------------------------------------------
# Recursion past the depth guard
# ---------------------------------------------------------------------------

RECURSION = LIB + """
class Main
class Rec
method Main.down(1) locals=1
    load 0
    ifzero base
    load 0
    const 3
    mod
    ifnzero skip
    new Node
    pop
skip:
    load 0
    const -1
    add
    invokestatic Main.down
    const 1
    add
    retval
base:
    const 0
    retval
method Rec.vdown(2) locals=2
    load 1
    ifzero vbase
    load 0
    load 1
    const -1
    add
    invokevirtual vdown 2
    const 2
    add
    retval
vbase:
    const 0
    retval
method Main.main(1) locals=1
    load 0
    invokestatic Main.down
    new Rec
    load 0
    invokevirtual vdown 2
    add
    retval
"""


@pytest.mark.parametrize("depth", [Interpreter.CALL_THREAD_MAX_DEPTH + 1, 300,
                                   1200])
def test_recursion_past_the_depth_guard(depth):
    # Past the guard the driver runs each deeper frame, so even recursion
    # deeper than Python's own limit never nests that many ``run`` calls.
    # (A long quantum keeps the whole descent inside one slice.)
    assert depth > Interpreter.CALL_THREAD_MAX_DEPTH

    def run(dispatch, promote_after):
        outcomes, rt = run_both(RECURSION, dispatch, promote_after, [depth],
                                quantum=100_000)
        assert outcomes[0][0][0] == 3 * depth
        return outcomes, rt

    assert_dispatch_parity(run)


# ---------------------------------------------------------------------------
# Natives and native callbacks
# ---------------------------------------------------------------------------

NATIVE = LIB + """
class Main
class Box
    field value
method Main.leaf(1) locals=1
    new Node
    pop
    load 0
    const 5
    add
    retval
method Main.main(0) locals=3
    ; 0=i, 1=sum, 2=box
    new Box
    store 2
    const 0
    store 0
    const 0
    store 1
loop:
    load 0
    const 200
    if_icmpge done
    load 0
    invokestatic Main.twice
    load 0
    invokestatic Main.cb
    add
    load 2
    invokevirtual tag 1
    pop
    invokestatic Main.nothing
    load 1
    add
    store 1
    iinc 0 1
    goto loop
done:
    load 1
    retval
"""


def native_methods():
    def callback(env, args):
        return env.call("Main.leaf", [args[0]]) + 1

    return (
        ("Main", JMethod("twice", 1, native=lambda env, args: 2 * args[0])),
        ("Main", JMethod("cb", 1, native=callback)),
        ("Main", JMethod("nothing", 0, native=lambda env, args: VOID)),
        # A virtual native returning a reference (pinned at the boundary).
        ("Box", JMethod("tag", 1,
                        native=lambda env, args: env.new_string("t"))),
    )


def test_native_callees_and_callbacks():
    def run(dispatch, promote_after):
        outcomes, rt = run_both(NATIVE, dispatch, promote_after,
                                natives=native_methods())
        assert outcomes[0][0][0] == sum(3 * i + 6 for i in range(200))
        return outcomes, rt

    assert_dispatch_parity(run)


# ---------------------------------------------------------------------------
# Cold callees, budget refusals, implicit returns
# ---------------------------------------------------------------------------

#: Main's loop gets hot through its backedges long before ``Main.cold``
#: earns the default threshold from its 100 calls.
COLD_CALLEE = LIB + """
class Main
method Main.cold(1) locals=1
    load 0
    const 2
    mul
    retval
method Main.main(0) locals=2
    const 0
    store 0
    const 0
    store 1
loop:
    load 0
    const 100
    if_icmpge done
    load 0
    invokestatic Main.cold
    load 1
    add
    store 1
    iinc 0 1
    goto loop
done:
    load 1
    retval
"""


def test_promoted_caller_of_a_cold_callee():
    from repro.jvm.compiledcode import clear_codegen_caches

    def run(dispatch, promote_after):
        if promote_after == RuntimeConfig.promote_after:
            clear_codegen_caches()
        outcomes, rt = run_both(COLD_CALLEE, dispatch, promote_after)
        assert outcomes[0][0][0] == 2 * sum(range(100))
        if dispatch == "tiered" and promote_after == RuntimeConfig.promote_after:
            promoted = {m.name for m in rt.interpreter._pycache}
            assert promoted == {"main"}
        return outcomes, rt

    assert_dispatch_parity(run)


#: ``Main.long``'s entry block is MAX_BLOCK instructions long, so with a
#: second thread keeping quanta short the caller's direct entry often
#: finds too little budget left and hands the callee to the driver.
REFUSAL = LIB + """
class Main
class Worker
method Worker.churn(2) locals=3
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
method Main.long(1) locals=2
    load 0
    const 1
    add
    const 2
    mul
    store 1
    const 0
    pop
    load 1
    retval
method Main.main(0) locals=2
    new Worker
    const 150
    spawn churn 2
    const 0
    store 0
    const 0
    store 1
loop:
    load 0
    const 300
    if_icmpge done
    load 0
    invokestatic Main.long
    load 1
    add
    store 1
    iinc 0 1
    goto loop
done:
    load 1
    retval
"""


@pytest.mark.parametrize("quantum", [1, 3, 7])
def test_callee_entry_block_misses_the_budget(quantum):
    def run(dispatch, promote_after):
        outcomes, rt = run_both(REFUSAL, dispatch, promote_after,
                                quantum=quantum)
        assert outcomes[0][0][0] == sum(2 * (i + 1) for i in range(300))
        return outcomes, rt

    assert_dispatch_parity(run)


IMPLICIT = LIB + """
class Main
method Main.leaf(1) locals=1
    load 0
    ifzero skip
    new Node
    pop
skip:
    const 0
    pop
method Main.main(0) locals=1
    const 0
    store 0
loop:
    load 0
    const 150
    if_icmpge done
    load 0
    const 2
    mod
    invokestatic Main.leaf
    iinc 0 1
    goto loop
done:
    load 0
    retval
"""


@pytest.mark.parametrize("every", [7, 50])
def test_implicit_return_callee_with_heartbeats(every, tmp_path):
    def observe(rt):
        beats = []
        beat = rt.heartbeat.beat

        def recording(runtime, phase="live"):
            depths = [len(t.stack.frames) for t in runtime.threads()]
            beats.append((runtime.ops, runtime.heap.occupancy(), depths))
            return beat(runtime, phase)

        rt.heartbeat.beat = recording
        return lambda: beats

    def run(dispatch, promote_after):
        outcomes, rt = run_both(IMPLICIT, dispatch, promote_after,
                                observe=observe, heartbeat_every=every,
                                heartbeat_spool=str(tmp_path))
        assert outcomes[0][0][0] == 150
        assert outcomes[0][1]
        return outcomes, rt

    assert_dispatch_parity(run)


# ---------------------------------------------------------------------------
# Traps at every instruction
# ---------------------------------------------------------------------------

TRAPPED = LIB + """
class Main
class Pt
method Pt.get(1)
    const 4
    retval
method Main.sq(1) locals=1
    load 0
    ifzero zero
    new Node
    pop
zero:
    load 0
    load 0
    mul
    retval
method Main.main(0) locals=2
    const 0
    store 0
    const 0
    store 1
loop:
    load 0
    const 6
    if_icmpge done
    load 0
    invokestatic Main.sq
    new Pt
    invokevirtual get 1
    add
    load 1
    add
    store 1
    iinc 0 1
    goto loop
done:
    load 1
    retval
"""


def test_trap_at_every_instruction():
    rt = build(TRAPPED, "table", RuntimeConfig.promote_after, traced=False)
    assert rt.run("Main.main") == sum(i * i + 4 for i in range(6))
    total = rt.interpreter.instructions_executed

    def run(dispatch, promote_after):
        stops = []
        for after in range(total):
            plan = FaultPlan([FaultSpec("interp.step", "trap", after=after)])
            rt = build(TRAPPED, dispatch, promote_after, traced=False,
                       faults=plan)
            with pytest.raises(TrapFault) as excinfo:
                rt.run("Main.main")
            stops.append((rt.interpreter.instructions_executed, rt.ops,
                          rt.collector.stats,
                          excinfo.value.report.dump["frames"]))
        return stops, rt

    assert_dispatch_parity(run)


# ---------------------------------------------------------------------------
# The call path itself
# ---------------------------------------------------------------------------


def test_promoted_calls_skip_runtime_services(monkeypatch):
    # Pinned to tiered (the suite may sweep the default to table) and run
    # cold.  A direct call pushes and pops its frames inline, and an empty
    # frame's pop is only counted, so of bc-calls' 28,462 frame pushes
    # and pops only the few made before promotion reach these services.
    from repro.core.collector import ContaminatedCollector
    from repro.jvm.runtime import Runtime as RuntimeClass

    monkeypatch.setenv("REPRO_DISPATCH", "tiered")
    calls = {}
    for owner, name in ((RuntimeClass, "push_frame"),
                        (Interpreter, "_invoke"),
                        (ContaminatedCollector, "on_frame_pop")):
        def counting(*args, _real=getattr(owner, name), _name=name):
            calls[_name] = calls.get(_name, 0) + 1
            return _real(*args)

        monkeypatch.setattr(owner, name, counting)
    result = execute(RunRequest("bc-calls", 10, "cg", cold_start=True))
    assert sum(calls.values()) <= 1000, calls
    assert result.cg_stats.frame_pops == 28_462
