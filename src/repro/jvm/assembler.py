"""A small textual assembler for the VM.

The worked examples of the thesis (Fig. 2.1/2.2, Fig. 3.1) and the bytecode
test programs are written in this format rather than hand-built instruction
tuples.  Grammar (one construct per line, ``;`` starts a comment)::

    class Vec [extends Super]
        field x
        field y
        static origin          ; declares a static slot on the class

    method Vec.make(2) [locals=4]
        new Vec
        store 2
    loop:                      ; labels end with ':'
        load 1
        ifzero done
        iinc 1 -1
        goto loop
    done:
        load 2
        retval

Operands are integers, ``"quoted strings"`` (for ``ldc_str``), or bare
words (class names, field names, ``Class.field`` refs, labels).  Branch
instructions take a label; the second pass resolves labels to pcs.
``invokevirtual``/``spawn`` take the method name and the argument count
(receiver included).
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Tuple

from . import bytecode as bc
from .errors import AssemblerError
from .model import Instruction, JClass, JMethod, Program

_METHOD_RE = re.compile(
    r"^method\s+(?P<qual>[\w/$\[\];]+\.\w+)\s*\(\s*(?P<nargs>\d+)\s*\)"
    r"(?:\s+locals\s*=\s*(?P<nlocals>\d+))?\s*$"
)
_CLASS_RE = re.compile(
    r"^class\s+(?P<name>[\w/$]+)(?:\s+extends\s+(?P<super>[\w/$]+))?\s*$"
)
_LABEL_RE = re.compile(r"^(?P<label>[A-Za-z_]\w*):\s*$")

#: Instructions taking (label) -> resolved to a pc.
_BRANCHES = bc.BRANCH_OPS

#: Instructions taking a string literal operand.
_STRING_OPERAND = {bc.LDC_STR}

#: Instructions taking an int operand.
_INT_OPERAND = {bc.CONST, bc.LOAD, bc.STORE}

#: mnemonic -> expected operand count (excluding implicit stack operands).
_ARITY: Dict[int, int] = {}
for _name, _op in bc.OPCODES_BY_NAME.items():
    if _op in _BRANCHES or _op in _STRING_OPERAND or _op in _INT_OPERAND:
        _ARITY[_op] = 1
    elif _op in (bc.NEW, bc.GETFIELD, bc.PUTFIELD, bc.GETSTATIC, bc.PUTSTATIC,
                 bc.INVOKESTATIC, bc.INSTANCEOF):
        _ARITY[_op] = 1
    elif _op in (bc.INVOKEVIRTUAL, bc.SPAWN, bc.IINC):
        _ARITY[_op] = 2
    else:
        _ARITY[_op] = 0


def _tokenize(line: str) -> List[str]:
    """Split a line into tokens, honouring one double-quoted string."""
    tokens: List[str] = []
    rest = line.strip()
    while rest:
        if rest[0] == '"':
            end = rest.find('"', 1)
            if end < 0:
                raise AssemblerError(f"unterminated string in {line!r}")
            tokens.append(rest[: end + 1])
            rest = rest[end + 1:].strip()
        else:
            parts = rest.split(None, 1)
            tokens.append(parts[0])
            rest = parts[1].strip() if len(parts) > 1 else ""
    return tokens


class _PendingMethod:
    def __init__(self, qualified: str, nargs: int, nlocals: Optional[int]) -> None:
        self.qualified = qualified
        self.nargs = nargs
        self.nlocals = nlocals
        self.lines: List[Tuple[int, str]] = []  # (line number, text)


def assemble(source: str, program: Optional[Program] = None) -> Program:
    """Assemble ``source`` into (or onto) a :class:`Program`."""
    program = program or Program()
    current_class: Optional[JClass] = None
    pending: List[_PendingMethod] = []
    current_method: Optional[_PendingMethod] = None

    # Class bodies may forward-reference classes defined later, so we gather
    # method bodies first and assemble instructions in a second phase.
    for lineno, raw in enumerate(source.splitlines(), start=1):
        line = raw.split(";", 1)[0].rstrip()
        if not line.strip():
            continue
        stripped = line.strip()
        class_match = _CLASS_RE.match(stripped)
        if class_match:
            name = class_match.group("name")
            super_name = class_match.group("super")
            current_class = program.define_class(name, superclass=super_name)
            current_method = None
            continue
        method_match = _METHOD_RE.match(stripped)
        if method_match:
            nlocals = method_match.group("nlocals")
            current_method = _PendingMethod(
                method_match.group("qual"),
                int(method_match.group("nargs")),
                int(nlocals) if nlocals is not None else None,
            )
            pending.append(current_method)
            current_class = None
            continue
        first = stripped.split(None, 1)[0]
        if first in ("field", "static"):
            if current_class is None:
                raise AssemblerError(
                    f"line {lineno}: {first!r} outside a class body"
                )
            parts = stripped.split()
            if len(parts) != 2:
                raise AssemblerError(f"line {lineno}: expected '{first} NAME'")
            if first == "field":
                current_class.fields.append(parts[1])
            else:
                current_class.statics.setdefault(parts[1], None)
            continue
        if current_method is None:
            raise AssemblerError(
                f"line {lineno}: instruction outside a method body: {stripped!r}"
            )
        current_method.lines.append((lineno, stripped))

    for pm in pending:
        _assemble_method(program, pm)
    return program


def _assemble_method(program: Program, pm: _PendingMethod) -> None:
    cls_name, method_name = pm.qualified.rsplit(".", 1)
    cls = program.lookup(cls_name)
    code: List[Instruction] = []
    labels: Dict[str, int] = {}
    fixups: List[Tuple[int, str, int]] = []  # (pc, label, lineno)
    max_local = pm.nargs - 1

    for lineno, text in pm.lines:
        label_match = _LABEL_RE.match(text)
        if label_match:
            label = label_match.group("label")
            if label in labels:
                raise AssemblerError(f"line {lineno}: duplicate label {label!r}")
            labels[label] = len(code)
            continue
        tokens = _tokenize(text)
        mnemonic = tokens[0]
        op = bc.OPCODES_BY_NAME.get(mnemonic)
        if op is None:
            raise AssemblerError(f"line {lineno}: unknown mnemonic {mnemonic!r}")
        operands = tokens[1:]
        if len(operands) != _ARITY[op]:
            raise AssemblerError(
                f"line {lineno}: {mnemonic} expects {_ARITY[op]} operand(s), "
                f"got {len(operands)}"
            )
        a: object = None
        b: object = None
        if op in _BRANCHES:
            fixups.append((len(code), operands[0], lineno))
        elif op in _STRING_OPERAND:
            literal = operands[0]
            if not (literal.startswith('"') and literal.endswith('"')):
                raise AssemblerError(
                    f"line {lineno}: {mnemonic} needs a quoted string"
                )
            a = literal[1:-1]
        elif op in _INT_OPERAND:
            a = _parse_int(operands[0], lineno)
            if op in (bc.LOAD, bc.STORE):
                max_local = max(max_local, a)
        elif op == bc.IINC:
            a = _parse_int(operands[0], lineno)
            b = _parse_int(operands[1], lineno)
            max_local = max(max_local, a)
        elif op in (bc.INVOKEVIRTUAL, bc.SPAWN):
            a = operands[0]
            b = _parse_int(operands[1], lineno)
        elif op in (bc.GETSTATIC, bc.PUTSTATIC):
            # Pre-split "Class.field" at assembly time so the interpreter
            # never re-parses the operand on the hot path.
            ref = operands[0]
            if "." not in ref:
                raise AssemblerError(
                    f"line {lineno}: {mnemonic} needs Class.field, got {ref!r}"
                )
            a = tuple(ref.rsplit(".", 1))
        elif _ARITY[op] == 1:
            a = operands[0]
        code.append((op, a, b))

    for pc, label, lineno in fixups:
        if label not in labels:
            raise AssemblerError(f"line {lineno}: undefined label {label!r}")
        op, _, b = code[pc]
        code[pc] = (op, labels[label], b)

    nlocals = pm.nlocals if pm.nlocals is not None else max_local + 1
    method = JMethod(method_name, pm.nargs, nlocals=nlocals, code=code)
    method.labels = labels
    method.block_starts = block_leaders(code)
    cls.add_method(method)


#: Opcodes after which control cannot simply fall through to the next pc
#: inside one generated straight-line block: invokes and spawns hand the
#: driving loop a frame change (or a deopt), so the next pc must be an
#: entry point.
_BLOCK_ENDERS_FALLTHROUGH = frozenset({
    bc.INVOKESTATIC, bc.INVOKEVIRTUAL, bc.SPAWN, bc.RETURN, bc.RETVAL,
})


def block_leaders(code: List[Instruction]) -> Tuple[int, ...]:
    """Basic-block leader pcs, for the tiered mode's codegen.

    Classic leader analysis over the assembled (label-resolved) code: pc 0,
    every branch target, the fallthrough pc after every branch, and the pc
    after every invoke/spawn/return (generated code exits its function on
    frame changes and deopts, so the resumption pc must be an entry
    point).  ``len(code)`` — the implicit-return sentinel — is always
    a leader.  Targets outside ``[0, len(code)]`` (possible in hand-built
    code with wild branches) are dropped; the interpreter clamps such pcs
    to the sentinel at run time.
    """
    end = len(code)
    leaders = {0, end}
    for pc, (op, a, _b) in enumerate(code):
        if op in _BRANCHES:
            if isinstance(a, int):
                leaders.add(a)
            leaders.add(pc + 1)
        elif op in _BLOCK_ENDERS_FALLTHROUGH:
            leaders.add(pc + 1)
    return tuple(sorted(pc for pc in leaders if 0 <= pc <= end))


def _parse_int(token: str, lineno: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise AssemblerError(f"line {lineno}: expected integer, got {token!r}")
