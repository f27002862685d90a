"""Property test: generated bytecode programs agree across dispatch tiers.

Hypothesis builds a ``Main.main`` loop of random stack-balanced snippets
over a small class library: virtual calls on a receiver whose class
alternates by pass, static helpers, statics, strings, arrays and the
contamination stores CG tracks.  Error snippets fire on one chosen pass,
often after the method has been promoted, so the link step and the
deopt to the table handlers are exercised where they matter: an error
must surface with the table loop's type, message and op count.

Every example runs on every leg of ``tests.conftest.DISPATCH_LEGS``
(the ``table`` oracle, then ``tiered`` never promoting, promoting at
first visit and at the default threshold) with a drawn quantum and
periodic-GC period, and every leg must return the same result or error,
``ops``, instruction count, CG stats, census and heap occupancy.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import CGPolicy, Runtime, RuntimeConfig, assemble
from repro.jvm.errors import VMError
from tests.conftest import assert_dispatch_parity

#: Slots of ``Main.main``: 0 the pass counter, 1 an int accumulator, 2 an
#: ``A`` object, 3 an array, 4 the receiver (an ``A`` or a ``B``), 5 a
#: reference that may be null.  Every snippet keeps each slot's type, so
#: no pure instruction ever sees a mistyped operand.
LIBRARY = """\
class A
field x
field next
method A.f(1)
    const 1
    retval
method A.g(2)
    load 1
    const 2
    add
    retval
class B extends A
method B.f(1)
    const 2
    retval
method B.g(2)
    load 1
    const 3
    mul
    retval
class S
static s0
static s1
class Main
method Main.arith(2)
    load 0
    load 1
    add
    const 3
    mul
    const 9973
    mod
    retval
method Main.alloc(1)
    new A
    dup
    load 0
    putfield x
    retval
method Main.rec(1)
    load 0
    ifzero base
    new A
    pop
    load 0
    const -1
    add
    invokestatic Main.rec
    const 1
    add
    retval
base:
    const 0
    retval
"""

#: Folds an int on the stack into slot 1, keeping it small.
ACC = "load 1\nadd\nconst 9973\nmod\nstore 1\n"

#: Stack-balanced snippets; ``{c}`` is a small constant, ``{L}`` a label
#: unique to the snippet.
SNIPPETS = (
    "load 1\nconst {c}\nadd\nconst {c}\nmul\nconst 9973\nmod\nstore 1\n",
    "load 1\nconst {c}\ndiv\nload 0\nconst 1\nadd\nmod\nstore 1\n",
    "load 1\nneg\nstore 1\n",
    "load 2\nload 0\nputfield x\nload 2\ngetfield x\n" + ACC,
    "new A\ndup\nload 1\nputfield x\nstore 2\n",
    "new A\ndup\nload 2\nputfield next\nstore 2\n",
    "load 2\nload 4\nputfield next\nload 2\ngetfield next\nstore 5\n",
    "const {c}\nnewarray\nstore 3\n",
    "load 3\nconst 0\nload 2\naastore\nload 3\nconst 0\naaload\nstore 5\n",
    "load 3\narraylength\n" + ACC,
    "load 1\nputstatic S.s0\ngetstatic S.s0\n" + ACC,
    "load 2\nputstatic S.s1\ngetstatic S.s1\nstore 5\n",
    'ldc_str "s{c}"\nintern\npop\n',
    "load 1\nconst {c}\ninvokestatic Main.arith\nstore 1\n",
    "load 1\ninvokestatic Main.alloc\nstore 2\n",
    "const {c}\ninvokestatic Main.rec\n" + ACC,
    "load 4\ninstanceof B\n" + ACC,
    "load 5\ninstanceof A\n" + ACC,
    "load 2\nload 5\nif_acmpeq {L}\niinc 1 1\n{L}:\n",
    "load 4\nload 2\nif_acmpne {L}\niinc 1 2\n{L}:\n",
    "load 4\ninvokevirtual f 1\n" + ACC,
    "load 4\nload 0\ninvokevirtual g 2\n" + ACC,
)

#: Faulting instructions, each wrapped to run on one pass only.
ERRORS = (
    "aconst_null\ngetfield x\npop\n",
    "load 1\nconst 0\ndiv\npop\n",
    "load 4\ninvokevirtual h 1\npop\n",
    "load 4\ninvokevirtual g 1\npop\n",
    "getstatic NoSuchClass.f\npop\n",
    "invokestatic Main.nosuch\npop\n",
)


@st.composite
def programs(draw):
    passes = draw(st.integers(1, 60))
    body = []
    for i in range(draw(st.integers(1, 14))):
        label = f"s{i}"
        if draw(st.integers(0, 4)) == 0:
            error = draw(st.sampled_from(ERRORS))
            on_pass = draw(st.integers(0, 70))
            body.append(f"load 0\nconst {on_pass}\nif_icmpne {label}\n"
                        f"{error}{label}:\n")
        else:
            snippet = draw(st.sampled_from(SNIPPETS))
            body.append(snippet.format(c=draw(st.integers(1, 5)), L=label))
    return (
        LIBRARY
        + "method Main.main(0)\n"
        + "const 0\nstore 0\nconst 1\nstore 1\nnew A\nstore 2\n"
        + "const 2\nnewarray\nstore 3\nnew A\nstore 4\n"
        + "aconst_null\nstore 5\nconst 0\nputstatic S.s0\n"
        + f"loop:\nload 0\nconst {passes}\nif_icmpge done\n"
        + "load 0\nconst 2\nmod\nifzero even\nnew B\nstore 4\ngoto pick\n"
        + "even:\nnew A\nstore 4\npick:\n"
        + "".join(body)
        + "iinc 0 1\ngoto loop\ndone:\nload 1\nretval\n"
    )


@settings(max_examples=100, deadline=None)
@given(source=programs(),
       quantum=st.sampled_from([1, 2, 3, 7, 100]),
       gc_period_ops=st.sampled_from([None, 5, 37]))
def test_generated_program_parity(source, quantum, gc_period_ops):
    def run(dispatch, promote_after):
        rt = Runtime(RuntimeConfig(dispatch=dispatch,
                                   promote_after=promote_after,
                                   quantum=quantum,
                                   gc_period_ops=gc_period_ops,
                                   heap_words=1 << 13,
                                   cg=CGPolicy(paranoid=True)),
                     program=assemble(source))
        try:
            result = rt.run("Main.main", [])
        except VMError as exc:
            result = (type(exc).__name__, str(exc))
        return (result, rt.ops, rt.interpreter.instructions_executed,
                rt.collector.stats, rt.collector.final_census(),
                rt.heap.occupancy()), rt

    assert_dispatch_parity(run)
