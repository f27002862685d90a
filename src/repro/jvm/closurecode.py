"""The link step of tiered dispatch's generated code.

When :mod:`repro.jvm.compiledcode` gives a method a generated form, that
form is linked against the runtime's program once: :func:`compile_method`
resolves every ``getstatic``/``putstatic``/``new``/``invokestatic``
operand and returns the resolutions plus an empty receiver table for
every ``invokevirtual`` site.  The generated source reads them as
speculative constants behind ``is None`` guards, so it stays independent
of the program and is cached across runtimes; only the link is
per-runtime.  (The module and function keep their names because the
perfbench ledger wraps ``closurecode.compile_method`` as its
``jvm.compile`` layer.)

Soundness: a resolution that raises leaves its entry empty.  Generated
code deopts there, and the table handler (``_h_getstatic`` & co.)
resolves again and raises with the table loop's timing, so a bad
reference on a path that never executes never raises.  Resolution itself
runs no runtime service and counts nothing.  Like real JVM linking, this
assumes method tables are frozen once a method is promoted; classes here
are append-only at load time.
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Tuple

from . import bytecode as bc
from .errors import LinkageError
from .model import JClass, JMethod


class QuickeningState(NamedTuple):
    """One promoted method's link result, per (runtime, method)."""

    #: pc -> resolved object, or ``None`` where resolution raised:
    #: ``statics.get`` of the class for getstatic, the JClass for
    #: putstatic/new, the JMethod for invokestatic.
    values: Dict[int, object]
    #: pc -> ``{receiver JClass: JMethod}`` for every invokevirtual site,
    #: filled by the generated code itself (:func:`link_virtual`).
    vcalls: Dict[int, Dict[JClass, JMethod]]


def _split_static_ref(operand) -> Tuple[str, str]:
    # The assembler pre-splits to a (class, field) tuple; hand-built code
    # may still carry legacy "Class.field" strings.
    if type(operand) is tuple:
        return operand
    return tuple(operand.rsplit(".", 1))


def _resolve(program, op, operand):
    if op == bc.GETSTATIC:
        # runtime.load_static is a plain table.get on the class's
        # (identity-stable, mutated-in-place) statics dict.
        return program.lookup(_split_static_ref(operand)[0]).statics.get
    if op == bc.PUTSTATIC:
        return program.lookup(_split_static_ref(operand)[0])
    if op == bc.NEW:
        return program.lookup(operand)
    return program.resolve(operand)


_LINKED_OPS = (bc.GETSTATIC, bc.PUTSTATIC, bc.NEW, bc.INVOKESTATIC)


def compile_method(interp, method: JMethod) -> QuickeningState:
    """Link ``method``'s symbolic operands against ``interp``'s program."""
    program = interp.runtime.program
    values: Dict[int, object] = {}
    vcalls: Dict[int, Dict[JClass, JMethod]] = {}
    for pc, (op, a, _b) in enumerate(method.code):
        if op == bc.INVOKEVIRTUAL:
            vcalls[pc] = {}
        elif op in _LINKED_OPS:
            try:
                values[pc] = _resolve(program, op, a)
            except Exception:
                # Any failure, malformed hand-built operands included:
                # the table handler raises it when the instruction runs.
                values[pc] = None
    return QuickeningState(values, vcalls)


def link_virtual(table: Dict[JClass, JMethod], cls: JClass, name: str,
                 nargs: int):
    """Fill an ``invokevirtual`` site's receiver table on a miss.

    Returns the method ``cls`` resolves ``name`` to, caching it, or
    ``None`` without caching when the lookup fails or the method takes a
    different number of arguments: the generated code then deopts and
    ``_h_invokevirtual`` raises, on every visit, as in the table loop.
    """
    try:
        method = cls.resolve_method(name)
    except LinkageError:
        return None
    if method.nargs != nargs:
        return None
    table[cls] = method
    return method
