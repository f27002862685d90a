"""The VM's instruction set.

A compact stack-machine subset of JVM semantics, sufficient for the paper:
the CG-relevant instructions (``new``, ``putfield``, ``putstatic``,
``areturn``, ``aastore``) have faithful semantics; the rest exist so real
programs (the worked example of Fig. 2.2, the Fig. 3.1 thread example, the
bytecode workloads and tests) can be written.

Opcodes are plain module-level integers — the interpreter dispatches through
a list indexed by opcode, and tuples ``(op, a, b)`` are the instruction
representation (see :mod:`repro.jvm.model`).  Tiered dispatch compiles
these tuples once per method into pre-bound Python closures
(:mod:`repro.jvm.closurecode`) and, for hot methods, into generated
Python source (:mod:`repro.jvm.compiledcode`), so an opcode added here
needs a table handler, a closure factory and a codegen rule — the parity
corpus in ``tests/jvm/test_dispatch.py`` fails if any of them is
forgotten.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

_NAMES: List[str] = []


def _op(name: str) -> int:
    _NAMES.append(name)
    return len(_NAMES) - 1


# --- constants and locals -------------------------------------------------
CONST = _op("const")            # push literal (int/float); a = value
ACONST_NULL = _op("aconst_null")
LDC_STR = _op("ldc_str")        # allocate a String object; a = contents
LOAD = _op("load")              # push locals[a]
STORE = _op("store")            # locals[a] = pop
IINC = _op("iinc")              # locals[a] += b

# --- operand stack ----------------------------------------------------------
DUP = _op("dup")
POP = _op("pop")
SWAP = _op("swap")

# --- objects and arrays ------------------------------------------------------
NEW = _op("new")                # a = class name; push new instance
NEWARRAY = _op("newarray")      # pop length; push new array
GETFIELD = _op("getfield")      # pop obj; push obj.a
PUTFIELD = _op("putfield")      # pop value, obj; obj.a = value   [CG event]
GETSTATIC = _op("getstatic")    # a = "Class.field"; push static
PUTSTATIC = _op("putstatic")    # a = "Class.field"; pop value    [CG event]
AALOAD = _op("aaload")          # pop index, array; push array[index]
AASTORE = _op("aastore")        # pop value, index, array         [CG event]
ARRAYLENGTH = _op("arraylength")
INSTANCEOF = _op("instanceof")  # pop obj; push 1 if instance of class a
INTERN = _op("intern")          # pop String; push canonical      [CG event]

# --- invocation ---------------------------------------------------------------
INVOKESTATIC = _op("invokestatic")    # a = "Class.method" (exact)
INVOKEVIRTUAL = _op("invokevirtual")  # a = method name; receiver dispatch
RETURN = _op("return")                # return void
RETVAL = _op("retval")                # return TOS                [CG event if ref]
SPAWN = _op("spawn")                  # a = method name; pop receiver; start thread

# --- arithmetic (untyped: Python numerics) --------------------------------------
ADD = _op("add")
SUB = _op("sub")
MUL = _op("mul")
DIV = _op("div")      # integer division when both ints
MOD = _op("mod")
NEG = _op("neg")

# --- control flow ------------------------------------------------------------
GOTO = _op("goto")              # a = target pc
IFZERO = _op("ifzero")          # pop; jump if == 0
IFNZERO = _op("ifnzero")
IFNULL = _op("ifnull")          # pop; jump if null
IFNONNULL = _op("ifnonnull")
IF_ICMPEQ = _op("if_icmpeq")    # pop b, a; jump if a == b
IF_ICMPNE = _op("if_icmpne")
IF_ICMPLT = _op("if_icmplt")
IF_ICMPLE = _op("if_icmple")
IF_ICMPGT = _op("if_icmpgt")
IF_ICMPGE = _op("if_icmpge")
IF_ACMPEQ = _op("if_acmpeq")    # reference identity
IF_ACMPNE = _op("if_acmpne")

OP_COUNT = len(_NAMES)

#: opcode -> mnemonic.
OPCODE_NAMES: Tuple[str, ...] = tuple(_NAMES)

#: mnemonic -> opcode (used by the assembler).
OPCODES_BY_NAME: Dict[str, int] = {name: op for op, name in enumerate(_NAMES)}

#: Mnemonics whose single operand is a branch target label.
BRANCH_OPS = frozenset(
    op
    for op, name in enumerate(_NAMES)
    if name.startswith(("if", "goto"))
)


def disassemble(code: List[Tuple[int, object, object]]) -> str:
    """Human-readable listing (for error messages and docs)."""
    lines = []
    for pc, (op, a, b) in enumerate(code):
        operands = " ".join(
            ".".join(x) if type(x) is tuple else repr(x)
            for x in (a, b) if x is not None
        )
        lines.append(f"{pc:4d}  {OPCODE_NAMES[op]} {operands}".rstrip())
    return "\n".join(lines)
