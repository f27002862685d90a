"""Dispatch parity: the ``table`` oracle vs ``tiered`` over a promotion sweep.

The interpreter ships two dispatch modes: the opcode-indexed handler table
(``dispatch="table"``), the oracle, and ``tiered`` (the default), which
runs every method on the same handlers and promotes it at a call
boundary, once a hotness counter crosses ``promote_after``, to generated
Python source that deopts back to the handlers at guard failures and
quantum tails.  Every parity check runs tiered at ``promote_after``
1,000,000 on cold caches (handlers only, with the hotness profiling), 1
(generated code from each method's first visit) and the default 128, and
requires results, instruction counts, and VM state identical to table —
and the parity corpus must collectively exercise *every* opcode, so a new
opcode cannot be added to the handlers and forgotten in the codegen.

Linking gets extra scrutiny: resolution at promotion must neither raise
early nor change observable behaviour.  The generated code gets its own:
deopt mid-block, deopt at a quantum boundary, and generated-code reuse
across invocations must all be invisible.
"""

import pytest

from repro import CGPolicy, Runtime, RuntimeConfig, assemble
from repro.api import config_for
from repro.jvm import bytecode as bc
from repro.jvm import closurecode
from repro.jvm.compiledcode import clear_codegen_caches
from repro.jvm.errors import LinkageError, VerifyError
from repro.workloads.base import get_workload
from tests.conftest import (
    NEVER_PROMOTE,
    assert_dispatch_parity,
    dispatch_sweep,
)

MAIN = "class Main\nmethod Main.main(0)\n"

#: Each program is (source, entry_args, expected_result).  Together they
#: must cover the full opcode set (checked by test_corpus_covers_every_opcode).
PARITY_PROGRAMS = [
    # const/store/load/iinc/add/sub/mul/div/mod/neg/dup/pop/swap/goto/retval
    (
        MAIN
        + "    const 10\n    store 0\n    load 0\n    const 3\n    sub\n"
        + "    const 5\n    add\n    const 2\n    mul\n    const 4\n    div\n    const 100\n"
        + "    swap\n    pop\n    dup\n    pop\n    neg\n    store 1\n"
        + "    iinc 1 50\n    goto end\n    const -999\nend:\n"
        + "    load 1\n    const 7\n    mod\n    retval\n",
        [],
        -1,  # Java mod keeps the dividend sign: (-100 + 50) mod 7
    ),
    # all integer conditionals + ifzero/ifnzero
    (
        MAIN
        + "    const 0\n    store 0\n"
        + "    const 1\n    const 2\n    if_icmplt a\n    goto fail\n"
        + "a:\n    const 2\n    const 2\n    if_icmple b\n    goto fail\n"
        + "b:\n    const 3\n    const 2\n    if_icmpgt c\n    goto fail\n"
        + "c:\n    const 2\n    const 2\n    if_icmpge d\n    goto fail\n"
        + "d:\n    const 5\n    const 5\n    if_icmpeq e\n    goto fail\n"
        + "e:\n    const 5\n    const 6\n    if_icmpne f\n    goto fail\n"
        + "f:\n    const 0\n    ifzero g\n    goto fail\n"
        + "g:\n    const 9\n    ifnzero ok\n    goto fail\n"
        + "fail:\n    const 0\n    retval\n"
        + "ok:\n    const 1\n    retval\n",
        [],
        1,
    ),
    # heap opcodes: new/newarray/putfield/getfield/aastore/aaload/arraylength
    # + reference conditionals + aconst_null + instanceof + return/implicit
    (
        "class Node\nfield next\n"
        + MAIN
        + "    new Node\n    store 0\n"
        + "    load 0\n    instanceof Node\n    ifnzero t1\n"
        + "    const 0\n    retval\nt1:\n"
        + "    aconst_null\n    ifnull t2\n    const 0\n    retval\nt2:\n"
        + "    load 0\n    ifnonnull t3\n    const 0\n    retval\nt3:\n"
        + "    load 0\n    load 0\n    if_acmpeq t4\n    const 0\n    retval\n"
        + "t4:\n    load 0\n    aconst_null\n    if_acmpne t5\n"
        + "    const 0\n    retval\nt5:\n"
        + "    const 3\n    newarray\n    store 1\n"
        + "    load 1\n    const 0\n    load 0\n    aastore\n"
        + "    load 1\n    const 0\n    aaload\n    const 41\n"
        + "    invokestatic Main.wrap\n    getfield next\n    pop\n"
        + "    load 1\n    arraylength\n    retval\n"
        + "method Main.wrap(2)\n"
        + "    load 0\n    load 1\n    putfield next\n    load 0\n    retval\n"
        + "method Main.unused(0)\n    return\n",
        [],
        3,
    ),
    # statics, strings, virtual calls, spawn
    (
        "class Config\nstatic limit\n"
        + "class Worker\nfield tag\n"
        + "method Worker.poke(1)\n"
        + "    load 0\n    getfield tag\n    pop\n    return\n"
        + "method Worker.answer(1)\n    const 42\n    retval\n"
        + MAIN
        + "    const 99\n    putstatic Config.limit\n"
        + '    ldc_str "hello"\n    intern\n    pop\n'
        + "    new Worker\n    store 0\n"
        + "    load 0\n    spawn poke 1\n"
        + "    load 0\n    invokevirtual answer 1\n"
        + "    getstatic Config.limit\n    sub\n    retval\n",
        [],
        42 - 99,
    ),
]


def run_one(source, args, dispatch, **config_kwargs):
    config_kwargs.setdefault("cg", CGPolicy(paranoid=True))
    program = assemble(source)
    rt = Runtime(RuntimeConfig(dispatch=dispatch, **config_kwargs),
                 program=program)
    result = rt.run("Main.main", list(args))
    return result, rt


def snapshot(rt):
    state = [
        rt.interpreter.instructions_executed,
        rt.ops,
        rt.heap.occupancy(),
    ]
    if rt.collector is not None:
        state.append(rt.collector.stats)
        state.append(rt.collector.final_census())
    return tuple(state)


def assert_parity(source, args, expected, **config_kwargs):
    def run(dispatch, promote_after):
        result, rt = run_one(source, args, dispatch,
                             promote_after=promote_after, **config_kwargs)
        assert result == expected, f"{dispatch}: {result} != {expected}"
        return snapshot(rt), rt

    assert_dispatch_parity(run)


class TestOpcodeParity:
    @pytest.mark.parametrize("idx", range(len(PARITY_PROGRAMS)))
    def test_program_parity(self, idx):
        source, args, expected = PARITY_PROGRAMS[idx]
        assert_parity(source, args, expected)

    def test_parity_under_periodic_gc(self):
        # gc_period_ops ends slices where a collection is due, and runs
        # periodic collections mid-program.
        source, args, expected = PARITY_PROGRAMS[2]
        assert_parity(source, args, expected, gc_period_ops=7,
                      heap_words=4096)

    def test_corpus_covers_every_opcode(self):
        seen = set()
        for source, _, _ in PARITY_PROGRAMS:
            program = assemble(source)
            for cls in program.classes.values():
                for method in cls.methods.values():
                    for op, _, _ in method.code:
                        seen.add(op)
        missing = [bc.OPCODE_NAMES[op] for op in range(bc.OP_COUNT)
                   if op not in seen]
        assert not missing, f"parity corpus never exercises: {missing}"

    def test_unknown_opcode_every_dispatch(self):
        def run(dispatch, promote_after):
            program = assemble(MAIN + "    const 1\n    retval\n")
            method = program.lookup("Main").methods["main"]
            method.code[0] = (bc.OP_COUNT + 5, None, None)
            rt = Runtime(RuntimeConfig(dispatch=dispatch,
                                       promote_after=promote_after),
                         program=program)
            with pytest.raises(VerifyError, match="unknown opcode"):
                rt.run("Main.main", [])
            return None, rt

        dispatch_sweep(run)

    def test_spawn_without_receiver_every_dispatch(self):
        # Like ``invokevirtual m 0``: a verify error, raised after the
        # same instruction count under every leg.
        source = (
            "class Worker\nmethod Worker.work(1)\n    return\n"
            + MAIN + "    const 1\n    pop\n    spawn work 0\n"
            + "    const 1\n    retval\n"
        )

        def run(dispatch, promote_after):
            rt = Runtime(RuntimeConfig(dispatch=dispatch,
                                       promote_after=promote_after),
                         program=assemble(source))
            with pytest.raises(VerifyError, match="spawn needs a receiver"):
                rt.run("Main.main", [])
            return (rt.interpreter.instructions_executed, rt.ops), rt

        assert_dispatch_parity(run)


QUICKEN_SOURCE = (
    "class Config\nstatic limit\n"
    + "class Worker\n"
    + "method Worker.answer(1)\n    const 21\n    retval\n"
    + "method Main.twice(1)\n    load 0\n    const 2\n    mul\n    retval\n"
    + MAIN
    + "    const 7\n    putstatic Config.limit\n"
    + "    new Worker\n"
    + "    invokevirtual answer 1\n"
    + "    invokestatic Main.twice\n"
    + "    getstatic Config.limit\n"
    + "    sub\n    retval\n"
)


def run_cold(source, **config_kwargs):
    """Tiered dispatch that never promotes (cold caches, a threshold the
    program never reaches): every method runs on the table handlers."""
    clear_codegen_caches()
    result, rt = run_one(source, [], "tiered", promote_after=NEVER_PROMOTE,
                         **config_kwargs)
    assert rt.interpreter.methods_promoted == 0
    return result, rt


#: ``Main.main`` loops 60 times and reads a static of a class that does
#: not exist on pass 40, after every tiered leg has promoted it.
LATE_BAD_STATIC = (
    MAIN
    + "    const 0\n    store 0\n"
    + "loop:\n"
    + "    load 0\n    const 60\n    if_icmpge done\n"
    + "    load 0\n    const 40\n    if_icmpne skip\n"
    + "    getstatic NoSuchClass.f\n    pop\n"
    + "skip:\n"
    + "    iinc 0 1\n    goto loop\n"
    + "done:\n    const 1\n    retval\n"
)


class TestLinking:
    """Promotion links a method's symbolic operands once per runtime."""

    def test_promoted_method_links_every_reachable_entry(self):
        result, rt = run_one(QUICKEN_SOURCE, [], "tiered", promote_after=1)
        assert result == 42 - 7
        program = rt.program
        method = program.lookup("Main").methods["main"]
        links = rt.interpreter._pycache[method].links
        config = program.lookup("Config")
        worker = program.lookup("Worker")
        want = {bc.PUTSTATIC: config, bc.NEW: worker,
                bc.INVOKESTATIC: program.resolve("Main.twice")}
        for pc, (op, _, _) in enumerate(method.code):
            if op == bc.GETSTATIC:
                assert links.values[pc].__self__ is config.statics
            elif op in want:
                assert links.values[pc] is want[op], bc.OPCODE_NAMES[op]
            elif op == bc.INVOKEVIRTUAL:
                assert links.vcalls[pc] == {
                    worker: worker.resolve_method("answer")}

    def test_cold_run_links_nothing(self, monkeypatch):
        # Linking is the promoted form's step: a method that stays on the
        # table handlers is never linked.
        calls = []
        link = closurecode.compile_method

        def counted(interp, method):
            calls.append(method.qualified_name)
            return link(interp, method)

        monkeypatch.setattr(closurecode, "compile_method", counted)
        result, rt = run_cold(QUICKEN_SOURCE)
        assert result == 42 - 7
        assert calls == []
        clear_codegen_caches()
        result, rt = run_one(QUICKEN_SOURCE, [], "tiered", promote_after=1)
        assert result == 42 - 7
        assert len(calls) == rt.interpreter.methods_promoted == 3

    def test_bad_reference_after_promotion_raises_like_table(self):
        # The link leaves the entry empty; generated code deopts there and
        # the table handler raises, at the same op on every leg.
        def run(dispatch, promote_after):
            program = assemble(LATE_BAD_STATIC)
            rt = Runtime(RuntimeConfig(dispatch=dispatch,
                                       promote_after=promote_after),
                         program=program)
            with pytest.raises(LinkageError) as raised:
                rt.run("Main.main", [])
            if dispatch == "tiered" and promote_after != NEVER_PROMOTE:
                assert rt.interpreter.methods_promoted == 1
            return (str(raised.value), rt.ops), rt

        outcomes = dispatch_sweep(run)
        assert len(set(outcomes.values())) == 1, outcomes
        # Two set-up ops, 40 passes of 8, and 7 up to the faulting getstatic.
        assert outcomes["table"][1] == 2 + 40 * 8 + 7

    def test_unreachable_bad_reference_never_raises(self):
        # Linking leaves an unresolvable entry empty instead of raising,
        # so a dead getstatic naming a missing class stays harmless.
        source = (
            MAIN
            + "    goto ok\n"
            + "    getstatic NoSuchClass.field\n"
            + "ok:\n    const 5\n    retval\n"
        )

        def run(dispatch, promote_after):
            result, rt = run_one(source, [], dispatch,
                                 promote_after=promote_after)
            assert result == 5
            return result, rt

        dispatch_sweep(run)


#: A hot loop dense in the two-instruction shapes a quantum split or a
#: deopt can land between: ``load+getfield``, ``const+add``,
#: ``load+load`` and ``{load,const}+if_icmp*``.
PAIRS_LOOP = (
    "class Pair\nfield a\nfield b\n"
    + MAIN
    + "    new Pair\n    store 0\n"
    + "    load 0\n    const 11\n    putfield a\n"
    + "    load 0\n    const 31\n    putfield b\n"
    + "    const 0\n    store 1\n"
    + "    const 0\n    store 2\n"
    + "loop:\n"
    + "    load 1\n    const 200\n    if_icmpge done\n"
    # load+getfield, const+add, load+load, hot.
    + "    load 0\n    getfield a\n"
    + "    load 2\n    add\n"
    + "    const 3\n    add\n"
    + "    store 2\n"
    + "    load 0\n    load 0\n    if_acmpeq same\n"
    + "same:\n"
    + "    iinc 1 1\n    goto loop\n"
    + "done:\n"
    + "    load 2\n    retval\n"
)


class TestSuperinstructions:
    """Quantum splits landing inside instruction pairs never skid."""

    @pytest.mark.parametrize("quantum", [1, 2, 3, 7, 100])
    def test_quantum_split_never_skids(self, quantum):
        # Generated blocks are all-or-nothing against the budget; the tail
        # of every quantum single-steps table handlers, so a split can land
        # between the halves of any pair.  Whatever the quantum, every leg
        # agrees with table bit for bit.
        assert_parity(PAIRS_LOOP, [], 200 * (11 + 3), quantum=quantum)

    def test_quantum_split_with_threads(self):
        # Round-robin across a spawned allocator thread: the quantum
        # boundary now also decides interleaving, so any skid past a
        # split would shift CG events between threads.
        source = (
            "class Node\nfield next\n"
            + "class Worker\n"
            + "method Worker.churn(2)\n"
            + "    const 0\n    store 2\n"
            + "wloop:\n"
            + "    load 2\n    load 1\n    if_icmpge wdone\n"
            + "    new Node\n    pop\n"
            + "    iinc 2 1\n    goto wloop\n"
            + "wdone:\n    return\n"
            + MAIN
            + "    new Worker\n    const 40\n    spawn churn 2\n"
            + "    const 0\n    store 0\n"
            + "    const 0\n    store 1\n"
            + "loop:\n"
            + "    load 0\n    const 150\n    if_icmpge done\n"
            + "    load 1\n    const 2\n    add\n    store 1\n"
            + "    iinc 0 1\n    goto loop\n"
            + "done:\n    load 1\n    retval\n"
        )
        assert_parity(source, [], 300, quantum=7, heap_words=4096)


def assert_workload_parity(name):
    def run(dispatch, promote_after):
        wl = get_workload(name, seed=2000)
        config = config_for("cg", wl.heap_words(1))
        config.dispatch = dispatch
        config.promote_after = promote_after
        rt = Runtime(config)
        wl.execute(rt, 1)
        return (
            rt.collector.stats,
            rt.collector.final_census(),
            rt.interpreter.instructions_executed,
            rt.heap.occupancy(),
            rt.ops,
        ), rt

    assert_dispatch_parity(run)


class TestWorkloadDifferential:
    """Full workloads under every dispatch leg must agree exactly."""

    @pytest.mark.parametrize("name", ["jess", "raytrace"])
    def test_workload_identical(self, name):
        assert_workload_parity(name)

    @pytest.mark.parametrize(
        "name", ["bc-arith", "bc-list", "bc-calls", "bc-loop"])
    def test_bytecode_workload_identical(self, name):
        # The bc-* workloads are pure assembled bytecode, so every executed
        # instruction flows through the dispatch loop under test.
        assert_workload_parity(name)


POLY_SOURCE = (
    # Two unrelated receiver classes at one invokevirtual site: the first
    # call of each class misses the site's receiver table, and generated
    # code links the class there.
    "class Square\n"
    + "method Square.area(1)\n    const 4\n    retval\n"
    + "class Circle\n"
    + "method Circle.area(1)\n    const 3\n    retval\n"
    + MAIN
    + "    new Square\n    store 2\n"
    + "    new Circle\n    store 3\n"
    + "    const 0\n    store 0\n"
    + "    const 0\n    store 1\n"
    + "loop:\n"
    + "    load 0\n    const 60\n    if_icmpge done\n"
    + "    load 0\n    const 2\n    mod\n    ifzero even\n"
    + "    load 3\n    goto call\n"
    + "even:\n    load 2\n"
    + "call:\n    invokevirtual area 1\n"
    + "    load 1\n    add\n    store 1\n"
    + "    iinc 0 1\n    goto loop\n"
    + "done:\n    load 1\n    retval\n"
)

POLY_EXPECTED = 30 * 4 + 30 * 3


class TestCompiledDeopt:
    """Guard failures and quantum tails must be invisible in the results."""

    def test_polymorphic_guard_deopt_mid_block(self):
        # The call site alternates Square/Circle, so each class's first
        # call misses the receiver table and links inline.  Every leg
        # still agrees exactly.
        assert_parity(POLY_SOURCE, [], POLY_EXPECTED)

    def test_deopt_site_stays_on_generated_code(self):
        # A failed guard deopts *that execution*, not the method: the
        # cached PyCompiledMethod must survive the polymorphic site.
        result, rt = run_one(POLY_SOURCE, [], "tiered", promote_after=1)
        assert result == POLY_EXPECTED
        method = rt.program.lookup("Main").methods["main"]
        assert method in rt.interpreter._pycache
        comp = rt.interpreter._pycache[method]
        assert rt.run("Main.main", []) == POLY_EXPECTED
        assert rt.interpreter._pycache[method] is comp

    @pytest.mark.parametrize("quantum", [1, 2, 3, 7])
    def test_guard_deopt_at_quantum_boundary(self, quantum):
        # Tiny quanta force the driver's table tail at nearly every
        # block boundary, so handler-run instructions and generated-code
        # instructions interleave within a single slice.  Tick totals and
        # heap state still match the table oracle bit for bit.
        assert_parity(POLY_SOURCE, [], POLY_EXPECTED, quantum=quantum)

    def test_deopt_at_fused_pair_boundary(self):
        # The deopt target is the table handlers, one per instruction:
        # a single-instruction quantum lands every deopt between the
        # halves of a pair, which must not skid.
        assert_parity(PAIRS_LOOP, [], 200 * (11 + 3), quantum=1)

    def test_codegen_cache_shared_across_runtimes(self):
        # Identical bytecode in a fresh runtime reuses the cached
        # generated source and code object; only the link and its
        # bindings are rebuilt per runtime.
        result1, rt1 = run_one(POLY_SOURCE, [], "tiered", promote_after=1)
        m1 = rt1.program.lookup("Main").methods["main"]
        comp1 = rt1.interpreter._pycache[m1]
        result2, rt2 = run_one(POLY_SOURCE, [], "tiered", promote_after=1)
        m2 = rt2.program.lookup("Main").methods["main"]
        comp2 = rt2.interpreter._pycache[m2]
        assert result1 == result2 == POLY_EXPECTED
        assert comp2.source is comp1.source  # cache hit, not a regen
        assert comp2.run.__code__ is comp1.run.__code__
        assert comp2.run is not comp1.run  # bindings are per-runtime


HOT_LOOP = (
    MAIN
    + "    const 0\n    store 0\n"
    + "    const 0\n    store 1\n"
    + "loop:\n"
    + "    load 0\n    const 120\n    if_icmpge done\n"
    + "    load 0\n    invokestatic Main.step\n"
    + "    load 1\n    add\n    store 1\n"
    + "    iinc 0 1\n    goto loop\n"
    + "done:\n    load 1\n    retval\n"
    + "method Main.step(1)\n"
    + "    load 0\n    const 2\n    mul\n    retval\n"
)

HOT_EXPECTED = sum(2 * i for i in range(120))


class TestTieredPromotion:
    """Promotion timing is a performance decision, never a semantic one."""

    @pytest.mark.parametrize("promote_after", [1, 2, 5, 16, 1_000_000])
    def test_promotion_boundary_parity(self, promote_after):
        # Sweep the threshold across "promote on first visit", "promote
        # mid-run", and "never promote": counters must be bit-identical
        # to the table oracle at every boundary.
        ref_result, ref_rt = run_one(HOT_LOOP, [], "table")
        assert ref_result == HOT_EXPECTED
        result, rt = run_one(HOT_LOOP, [], "tiered",
                             promote_after=promote_after)
        assert result == HOT_EXPECTED
        assert snapshot(rt) == snapshot(ref_rt), promote_after

    def test_hot_methods_actually_promote(self):
        result, rt = run_one(HOT_LOOP, [], "tiered", promote_after=4)
        assert result == HOT_EXPECTED
        interp = rt.interpreter
        assert interp.methods_promoted > 0
        # Promoted methods live in the generated-code cache; the callee
        # Main.step is called 120 times so it must be among them.
        step = rt.program.lookup("Main").methods["step"]
        assert step in interp._pycache

    def test_cold_run_never_promotes(self):
        # "Cold" means cold caches too: a warm codegen cache would
        # short-circuit the threshold (promotion is free on a hit), so
        # drop it to observe the pure profile-gated behaviour.
        clear_codegen_caches()
        result, rt = run_one(HOT_LOOP, [], "tiered", promote_after=1_000_000)
        assert result == HOT_EXPECTED
        interp = rt.interpreter
        assert interp.methods_promoted == 0
        assert not interp._pycache

    def test_warm_cache_promotes_on_first_visit(self):
        # A prior run leaves the generated form in the cross-runtime
        # codegen cache; a fresh tiered runtime then promotes at each
        # method's first driver visit — no re-profiling, no codegen —
        # with counters identical to the cold run.
        cold_result, cold_rt = run_one(HOT_LOOP, [], "tiered",
                                       promote_after=4)
        result, rt = run_one(HOT_LOOP, [], "tiered",
                             promote_after=1_000_000)
        assert result == cold_result == HOT_EXPECTED
        interp = rt.interpreter
        assert interp.methods_promoted > 0
        assert interp.methods_codegenned == 0
        assert snapshot(rt) == snapshot(cold_rt)

    def test_loop_shorter_than_a_slice_promotes(self):
        # One method, one dispatch-loop visit: the loop ends inside the first
        # lone slice, so only the cold segment's stop at the backedge that
        # reaches the threshold leaves a visit to promote at.
        clear_codegen_caches()
        source = (
            MAIN
            + "    const 0\n    store 0\n"
            + "loop:\n"
            + "    load 0\n    const 200\n    if_icmpge done\n"
            + "    iinc 0 1\n    goto loop\n"
            + "done:\n    load 0\n    retval\n"
        )
        result, rt = run_one(source, [], "tiered")
        assert result == 200
        interp = rt.interpreter
        slice_len = rt.config.quantum * interp.LONE_SLICE_QUANTA
        assert interp.instructions_executed < slice_len
        assert interp.methods_promoted == 1

    @pytest.mark.parametrize("quantum", [1, 3, 7])
    def test_promotion_with_tiny_quanta(self, quantum):
        # Promotion decisions land at driver visits, so tiny quanta give
        # many more decision points; parity must hold regardless.
        ref_result, ref_rt = run_one(HOT_LOOP, [], "table", quantum=quantum)
        result, rt = run_one(HOT_LOOP, [], "tiered", quantum=quantum,
                             promote_after=3)
        assert result == ref_result == HOT_EXPECTED
        assert snapshot(rt) == snapshot(ref_rt)

    def test_polymorphic_mid_block_deopts_keep_parity(self):
        # An alternating-receiver call site placed *mid-block* (POLY_SOURCE
        # puts its site at a branch target, i.e. a block leader, whose
        # guard deopts re-enter at a leader): each class's first call
        # misses the receiver table in the middle of a block, and parity
        # must still hold.
        source = (
            "class Square\n"
            + "method Square.area(1)\n    const 4\n    retval\n"
            + "class Circle\n"
            + "method Circle.area(1)\n    const 3\n    retval\n"
            + MAIN
            + "    new Square\n    store 2\n"
            + "    new Circle\n    store 3\n"
            + "    const 0\n    store 0\n"
            + "    const 0\n    store 1\n"
            + "loop:\n"
            + "    load 0\n    const 60\n    if_icmpge done\n"
            + "    load 0\n    const 2\n    mod\n    ifzero even\n"
            + "    load 3\n    store 4\n    goto call\n"
            + "even:\n    load 2\n    store 4\n"
            + "call:\n    load 4\n    invokevirtual area 1\n"
            + "    load 1\n    add\n    store 1\n"
            + "    iinc 0 1\n    goto loop\n"
            + "done:\n    load 1\n    retval\n"
        )
        ref_result, ref_rt = run_one(source, [], "table")
        result, rt = run_one(source, [], "tiered", promote_after=2)
        assert result == ref_result == POLY_EXPECTED
        assert snapshot(rt) == snapshot(ref_rt)

    def test_many_visits_to_a_clean_method_keep_parity(self):
        # A deopt-free promoted method re-entered at many driver visits
        # (each at a quantum boundary) stays counter-identical to the
        # table oracle.  A lone thread gets one dispatch-loop visit per
        # slice, not per quantum, so a spawned spinner keeps a second
        # thread runnable for the whole loop and every quantum boundary
        # is a visit.
        source = (
            "class Spinner\n"
            + "method Spinner.spin(2)\n"
            + "    const 0\n    store 2\n"
            + "spin:\n"
            + "    load 2\n    load 1\n    if_icmpge spun\n"
            + "    iinc 2 1\n    goto spin\n"
            + "spun:\n    return\n"
            + MAIN
            + "    new Spinner\n    const 6000\n    spawn spin 2\n"
            + "    const 0\n    store 0\n    const 0\n    store 1\n"
            + "loop:\n"
            + "    load 0\n    const 4000\n    if_icmpge done\n"
            + "    load 1\n    const 3\n    add\n    store 1\n"
            + "    iinc 0 1\n    goto loop\n"
            + "done:\n    load 1\n    retval\n"
        )
        expected = 4000 * 3
        ref_result, ref_rt = run_one(source, [], "table", quantum=64)
        result, rt = run_one(source, [], "tiered", quantum=64,
                             promote_after=2)
        assert result == ref_result == expected
        assert snapshot(rt) == snapshot(ref_rt)
