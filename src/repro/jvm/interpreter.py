"""The bytecode interpreter.

A table-driven dispatch loop in the spirit of Sun's C reference interpreter
(the system the thesis modified): each opcode indexes a tuple of handler
functions, replacing the original if/elif chain whose average cost grew with
the opcode's position.  The CG-relevant instructions delegate to the runtime
services, which raise the collector events; the interpreter itself only
moves values between locals, operand stacks, and the heap.

Two dispatch modes share this file's runtime services and must produce
identical stats on every program: ``table`` (the loop below — the oracle
the opcode-parity suite and the perfbench reference compare against) and
``tiered`` (the default, :meth:`Interpreter._step_n_tiered`).  Tiered
runs each method on the same opcode handlers under a per-method
invocation + loop-backedge hotness counter and promotes it at a call
boundary, once hot, to generated Python source
(:mod:`repro.jvm.compiledcode`, linked by :mod:`repro.jvm.closurecode`)
with guard-protected speculation that deopts back to the handlers.  So
each opcode is implemented twice, as a handler and as a codegen rule.

Threading: :meth:`Interpreter.run_program` drives the deterministic
round-robin scheduler — while two or more threads are runnable, each
executes up to a quantum of instructions before rotating, so cross-thread
sharing (section 3.3) is both exercised and reproducible.  A thread that
runs alone gets :data:`Interpreter.LONE_SLICE_QUANTA` quanta per dispatch
call, cut short (:class:`SliceEnd`) at the instruction that makes a second
thread runnable, so the schedule is the per-quantum one exactly.  Native
methods run inline in the invoking thread; when native code calls back
into Java (``NativeEnv.call``), the callee runs synchronously on the same
thread via :meth:`call_sync`.
"""

from __future__ import annotations

from time import perf_counter
from typing import Dict, List, TYPE_CHECKING, Tuple

from ..faults import NativeCallFault, TrapFault, did_you_mean, inject
from ..obs.profile import PHASE_CODEGEN
from . import bytecode as bc
from .errors import NullPointerError, VerifyError, VMError
from .heap import Handle
from .model import JClass, JMethod, Program
from .natives import NativeEnv
from .runtime import DISPATCH_CHOICES
from .threads import JThread

if TYPE_CHECKING:  # pragma: no cover
    from .runtime import Runtime

#: Sentinel for "this method returned no value".
VOID = object()


class SliceEnd(Exception):
    """A second thread just became runnable: end the scheduling slice.

    Raised once the instruction that caused it (a ``spawn``, or an invoke
    of a native whose callback spawned) has fully executed and its resume
    pc is stored in the frame.  Every dispatch loop catches it and returns
    the instructions retired so far; :meth:`Interpreter.run_program` then
    finishes the quantum the slice was in, so rotation lands where
    per-quantum slicing would put it.
    """


# ---------------------------------------------------------------------------
# Opcode handlers (table dispatch)
#
# One module-level function per opcode, uniform signature
# ``(interp, runtime, thread, frame, a, b)``.  The driving loop has already
# advanced ``frame.pc`` past the instruction, so branch handlers simply
# overwrite it.  Handlers are plain functions (not methods) so the dispatch
# table costs one tuple index plus one call — no bound-method creation.
# ---------------------------------------------------------------------------


def _h_const(interp, runtime, thread, frame, a, b):
    frame.stack.append(a)


def _h_aconst_null(interp, runtime, thread, frame, a, b):
    frame.stack.append(None)


def _h_ldc_str(interp, runtime, thread, frame, a, b):
    frame.stack.append(runtime.new_string(a, thread))


def _h_load(interp, runtime, thread, frame, a, b):
    frame.stack.append(frame.locals[a])


def _h_store(interp, runtime, thread, frame, a, b):
    frame.locals[a] = frame.stack.pop()


def _h_iinc(interp, runtime, thread, frame, a, b):
    frame.locals[a] += b


def _h_dup(interp, runtime, thread, frame, a, b):
    frame.stack.append(frame.stack[-1])


def _h_pop(interp, runtime, thread, frame, a, b):
    frame.stack.pop()


def _h_swap(interp, runtime, thread, frame, a, b):
    stack = frame.stack
    stack[-1], stack[-2] = stack[-2], stack[-1]


def _h_new(interp, runtime, thread, frame, a, b):
    frame.stack.append(runtime.allocate(a, thread))


def _h_newarray(interp, runtime, thread, frame, a, b):
    stack = frame.stack
    length = stack.pop()
    stack.append(runtime.allocate(Program.ARRAY, thread, length=length))


def _h_getfield(interp, runtime, thread, frame, a, b):
    stack = frame.stack
    obj = stack.pop()
    if obj is None:
        raise NullPointerError(f"getfield {a} on null")
    stack.append(runtime.load_field(obj, a, thread))


def _h_putfield(interp, runtime, thread, frame, a, b):
    stack = frame.stack
    value = stack.pop()
    obj = stack.pop()
    if obj is None:
        raise NullPointerError(f"putfield {a} on null")
    runtime.store_field(obj, a, value, thread)


def _h_getstatic(interp, runtime, thread, frame, a, b):
    try:
        cls, field = interp._static_refs[a]
    except KeyError:
        cls, field = interp._resolve_static(a)
    frame.stack.append(runtime.load_static(field, cls))


def _h_putstatic(interp, runtime, thread, frame, a, b):
    try:
        cls, field = interp._static_refs[a]
    except KeyError:
        cls, field = interp._resolve_static(a)
    runtime.store_static(field, frame.stack.pop(), cls)


def _h_aaload(interp, runtime, thread, frame, a, b):
    stack = frame.stack
    index = stack.pop()
    array = stack.pop()
    if array is None:
        raise NullPointerError("aaload on null array")
    stack.append(runtime.load_element(array, index, thread))


def _h_aastore(interp, runtime, thread, frame, a, b):
    stack = frame.stack
    value = stack.pop()
    index = stack.pop()
    array = stack.pop()
    if array is None:
        raise NullPointerError("aastore on null array")
    runtime.store_element(array, index, value, thread)


def _h_arraylength(interp, runtime, thread, frame, a, b):
    stack = frame.stack
    array = stack.pop()
    if array is None:
        raise NullPointerError("arraylength on null")
    runtime.access(array, thread)
    stack.append(array.length)


def _h_instanceof(interp, runtime, thread, frame, a, b):
    stack = frame.stack
    obj = stack.pop()
    stack.append(interp._instanceof(obj, a))


def _h_intern(interp, runtime, thread, frame, a, b):
    stack = frame.stack
    string = stack.pop()
    if string is None:
        raise NullPointerError("intern on null")
    runtime.access(string, thread)
    stack.append(runtime.intern(string))


def _h_invokestatic(interp, runtime, thread, frame, a, b):
    interp._invoke(thread, frame, runtime.program.resolve(a))


def _h_invokevirtual(interp, runtime, thread, frame, a, b):
    nargs = b
    if nargs < 1:
        raise VerifyError("invokevirtual needs a receiver")
    receiver = frame.stack[-nargs]
    if receiver is None:
        raise NullPointerError(f"invokevirtual {a} on null")
    runtime.access(receiver, thread)
    method = receiver.cls.resolve_method(a)
    if method.nargs != nargs:
        raise VerifyError(
            f"{method.qualified_name} takes "
            f"{method.nargs} args, call site passes {nargs}"
        )
    interp._invoke(thread, frame, method)


def _h_return(interp, runtime, thread, frame, a, b):
    interp._return(thread, VOID)


def _h_retval(interp, runtime, thread, frame, a, b):
    value = frame.stack.pop()
    if isinstance(value, Handle):
        runtime.return_reference(value, thread)
    interp._return(thread, value)


def _h_spawn(interp, runtime, thread, frame, a, b):
    nargs = b if b is not None else 1
    if nargs < 1:
        raise VerifyError("spawn needs a receiver")
    stack = frame.stack
    args = [stack.pop() for _ in range(nargs)][::-1]
    receiver = args[0]
    if receiver is None:
        raise NullPointerError(f"spawn {a} on null receiver")
    method = receiver.cls.resolve_method(a)
    if method.nargs != nargs:
        raise VerifyError(
            f"spawn: {method.qualified_name} takes "
            f"{method.nargs} args, got {nargs}"
        )
    # Thread.start() crosses the native boundary in the JDK, and the
    # spawning frame may pop before the new thread ever touches its
    # arguments — so every reference handed to the new thread is pinned
    # as thread-shared immediately (section 3.3's conservative treatment).
    if runtime.collector is not None:
        from ..core.stats import CAUSE_SHARED

        for arg in args:
            if isinstance(arg, Handle):
                runtime.collector.pin_static(arg, CAUSE_SHARED)
    new_thread = runtime.new_thread()
    interp._push_frame(new_thread, method, args)
    raise SliceEnd


def _h_add(interp, runtime, thread, frame, a, b):
    stack = frame.stack
    y = stack.pop()
    stack[-1] = stack[-1] + y


def _h_sub(interp, runtime, thread, frame, a, b):
    stack = frame.stack
    y = stack.pop()
    stack[-1] = stack[-1] - y


def _h_mul(interp, runtime, thread, frame, a, b):
    stack = frame.stack
    y = stack.pop()
    stack[-1] = stack[-1] * y


def _h_div(interp, runtime, thread, frame, a, b):
    stack = frame.stack
    y = stack.pop()
    x = stack.pop()
    if isinstance(x, int) and isinstance(y, int):
        stack.append(int(x / y) if y != 0 else _div_zero())
    else:
        stack.append(x / y)


def _h_mod(interp, runtime, thread, frame, a, b):
    stack = frame.stack
    y = stack.pop()
    x = stack.pop()
    stack.append(x - int(x / y) * y if y != 0 else _div_zero())


def _h_neg(interp, runtime, thread, frame, a, b):
    stack = frame.stack
    stack[-1] = -stack[-1]


def _h_goto(interp, runtime, thread, frame, a, b):
    frame.pc = a


def _h_ifzero(interp, runtime, thread, frame, a, b):
    if frame.stack.pop() == 0:
        frame.pc = a


def _h_ifnzero(interp, runtime, thread, frame, a, b):
    if frame.stack.pop() != 0:
        frame.pc = a


def _h_ifnull(interp, runtime, thread, frame, a, b):
    if frame.stack.pop() is None:
        frame.pc = a


def _h_ifnonnull(interp, runtime, thread, frame, a, b):
    if frame.stack.pop() is not None:
        frame.pc = a


def _h_if_icmpeq(interp, runtime, thread, frame, a, b):
    stack = frame.stack
    y = stack.pop()
    if stack.pop() == y:
        frame.pc = a


def _h_if_icmpne(interp, runtime, thread, frame, a, b):
    stack = frame.stack
    y = stack.pop()
    if stack.pop() != y:
        frame.pc = a


def _h_if_icmplt(interp, runtime, thread, frame, a, b):
    stack = frame.stack
    y = stack.pop()
    if stack.pop() < y:
        frame.pc = a


def _h_if_icmple(interp, runtime, thread, frame, a, b):
    stack = frame.stack
    y = stack.pop()
    if stack.pop() <= y:
        frame.pc = a


def _h_if_icmpgt(interp, runtime, thread, frame, a, b):
    stack = frame.stack
    y = stack.pop()
    if stack.pop() > y:
        frame.pc = a


def _h_if_icmpge(interp, runtime, thread, frame, a, b):
    stack = frame.stack
    y = stack.pop()
    if stack.pop() >= y:
        frame.pc = a


def _h_if_acmpeq(interp, runtime, thread, frame, a, b):
    stack = frame.stack
    y = stack.pop()
    if stack.pop() is y:
        frame.pc = a


def _h_if_acmpne(interp, runtime, thread, frame, a, b):
    stack = frame.stack
    y = stack.pop()
    if stack.pop() is not y:
        frame.pc = a


def _div_zero():
    raise VMError("integer division by zero")


_HANDLER_BY_NAME = {
    "const": _h_const,
    "aconst_null": _h_aconst_null,
    "ldc_str": _h_ldc_str,
    "load": _h_load,
    "store": _h_store,
    "iinc": _h_iinc,
    "dup": _h_dup,
    "pop": _h_pop,
    "swap": _h_swap,
    "new": _h_new,
    "newarray": _h_newarray,
    "getfield": _h_getfield,
    "putfield": _h_putfield,
    "getstatic": _h_getstatic,
    "putstatic": _h_putstatic,
    "aaload": _h_aaload,
    "aastore": _h_aastore,
    "arraylength": _h_arraylength,
    "instanceof": _h_instanceof,
    "intern": _h_intern,
    "invokestatic": _h_invokestatic,
    "invokevirtual": _h_invokevirtual,
    "return": _h_return,
    "retval": _h_retval,
    "spawn": _h_spawn,
    "add": _h_add,
    "sub": _h_sub,
    "mul": _h_mul,
    "div": _h_div,
    "mod": _h_mod,
    "neg": _h_neg,
    "goto": _h_goto,
    "ifzero": _h_ifzero,
    "ifnzero": _h_ifnzero,
    "ifnull": _h_ifnull,
    "ifnonnull": _h_ifnonnull,
    "if_icmpeq": _h_if_icmpeq,
    "if_icmpne": _h_if_icmpne,
    "if_icmplt": _h_if_icmplt,
    "if_icmple": _h_if_icmple,
    "if_icmpgt": _h_if_icmpgt,
    "if_icmpge": _h_if_icmpge,
    "if_acmpeq": _h_if_acmpeq,
    "if_acmpne": _h_if_acmpne,
}

#: Opcode-indexed handler table.  Built from the mnemonic map so a missing
#: or misspelt entry fails at import time, not mid-run.
_HANDLERS: Tuple = tuple(_HANDLER_BY_NAME[name] for name in bc.OPCODE_NAMES)
assert len(_HANDLERS) == bc.OP_COUNT


class Interpreter:
    """Executes bytecode methods on a runtime's threads."""

    def __init__(self, runtime: "Runtime") -> None:
        self.runtime = runtime
        self.instructions_executed = 0
        #: static-ref operand -> (JClass, field name).  Operands are the
        #: assembler's pre-split ``(class, field)`` tuples (or legacy
        #: ``"Class.field"`` strings from hand-built code); both are
        #: hashable, so one dict serves as the resolution cache.
        self._static_refs: Dict[object, Tuple[JClass, str]] = {}
        #: Per-thread stack of frame depths acting as sync-call boundaries:
        #: a return at a marked depth delivers its value to ``_sync_results``
        #: instead of the caller's operand stack (native callbacks).
        self._sync_marks: Dict[int, List[int]] = {}
        self._sync_results: Dict[int, object] = {}
        #: One runtime call per frame push and per pop, for the handlers
        #: (table and tiered alike) and natives; generated code pushes and
        #: pops its frames inline (:mod:`repro.jvm.compiledcode`).
        self._runtime_push = runtime.push_frame
        self._runtime_pop = runtime.pop_frame
        #: The scheduler's registration list (grows on every new thread).
        self._threads: List[JThread] = runtime.scheduler._threads
        config = runtime.config
        #: JMethod -> PyCompiledMethod, the generated Python form of each
        #: promoted method.  Per-interpreter: it is linked against this
        #: runtime's program and binds this runtime's services.
        self._pycache: Dict[JMethod, object] = {}
        #: Out-parameter cells for the generated functions.
        #: ``[0]``: on an exception, the instructions retired before the
        #: raise (re-entrant: every raise path *adds* its count just-in-time
        #: and each driving-loop level consumes its value before
        #: re-raising; a callee entered directly from a generated invoke
        #: site adds its own count, then its caller adds its own).
        #: ``[1]``: implicit end-of-code returns of callees entered
        #: directly — counted but never ticked; each driver reads and
        #: re-zeroes it after every generated-``run`` call.
        self._nout: List[int] = [0, 0]
        #: Tiered dispatch (profile-guided promotion) state.  ``_hotness``
        #: maps cold methods to their hotness score (driver visits plus
        #: weighted loop backedges); crossing ``promote_after`` promotes
        #: the method to generated code at its next call boundary.  It is
        #: wall-time-only bookkeeping: promotion swaps *which*
        #: parity-equal loop runs a method, never what it counts.
        self._hotness: Dict[JMethod, int] = {}
        #: Methods whose first tiered visit already probed the in-memory
        #: codegen cache for a ready-made compiled form.  One probe per
        #: method, ever: a hit promotes immediately (codegen is free, so
        #: the hotness threshold has nothing left to decide), a miss
        #: falls back to the profile-and-promote path.
        self._cache_probed: set = set()
        self._promote_after: int = config.promote_after
        #: Always-on compile accounting, independent of the profiler: wall
        #: seconds of the one-time link + codegen path and method counts.
        #: Feeds ``vm.compile.*`` metrics, the snapshot ``compile``
        #: section, and the bench compile_ms split — cheap (two
        #: perf_counter calls per promoted *method*, not per instruction),
        #: so unprofiled runs keep their counters bit-identical.
        self.codegen_seconds: float = 0.0
        self.methods_codegenned: int = 0
        self.methods_promoted: int = 0
        dispatch = config.dispatch
        if dispatch not in DISPATCH_CHOICES:
            # RuntimeConfig validates at construction; this catches
            # post-construction mutation (config.dispatch = "typo") and
            # hand-built configs, which previously fell through silently
            # to table dispatch.
            raise ValueError(
                f"dispatch must be one of {DISPATCH_CHOICES}, got {dispatch!r}"
                f"{did_you_mean(dispatch, DISPATCH_CHOICES)}"
            )
        if dispatch == "tiered":
            self.step_n = self._step_n_tiered
        plan = config.faults
        #: The fault plan when it arms ``interp.step`` traps, else None.
        self._traps = (plan if plan is not None and plan.arms("interp.step")
                       else None)
        if self._traps is not None or runtime.next_due() is not None:
            # Something can fall due mid-slice: wrap whichever dispatch
            # loop was just selected.  The wrapper ends slices at due
            # points, so the inner loops stay untouched and a run with
            # nothing armed pays nothing.
            self._inner_step_n = self.step_n
            self.step_n = self._step_n_sliced

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------

    #: Quanta a thread runs per dispatch call while no other thread is
    #: runnable.  Its schedule is the per-quantum one (a :class:`SliceEnd`
    #: cuts the slice where a second thread appears, and the quantum is
    #: then finished); 1 re-enters the dispatch loop every quantum.  Kept
    #: small: budget arithmetic stays on ints below 2**30 (CPython's
    #: single-digit longs, the fast ones), and ``runtime.ops`` is never
    #: more than one slice stale.
    LONE_SLICE_QUANTA = 64

    def run_program(self, qualified: str, args: List[object]) -> object:
        """Run ``qualified`` on the main thread; interleave spawned threads.

        While two or more threads are runnable each runs one quantum, then
        the round-robin rotates; a thread running alone runs
        :data:`LONE_SLICE_QUANTA` quanta per ``step_n`` call.  A slice cut
        short by :class:`SliceEnd` is topped up to its quantum boundary
        before rotating, so every thread retires exactly the instructions
        it would under one ``step_n`` call per quantum.
        """
        runtime = self.runtime
        self._push_call(runtime.main_thread, qualified, args)
        quantum = runtime.config.quantum
        lone = quantum * self.LONE_SLICE_QUANTA
        step_n = self.step_n
        next_thread = runtime.scheduler.next_thread
        runnable = runtime.scheduler.runnable
        threads = self._threads
        while True:
            # Sole-thread fast path: with one registered thread the
            # round-robin probe always lands on it with the cursor pinned
            # at 0, so skipping next_thread() is observationally
            # identical (a spawn grows the list and drops us back onto
            # the general path with the cursor state unchanged).
            if len(threads) == 1:
                thread = threads[0]
                if not (thread.alive and thread.stack.frames):
                    break
                budget = lone
            else:
                thread = next_thread()
                if thread is None:
                    break
                # With one runnable thread next_thread() lands on it
                # every time and leaves the cursor where one call leaves
                # it, so a lone slice is as good as its quanta.
                budget = lone if len(runnable()) == 1 else quantum
            executed = step_n(thread, budget)
            frames = thread.stack.frames
            # Short of a quantum boundary with frames left: a SliceEnd cut
            # the slice, so finish its quantum (repeating if another
            # SliceEnd cuts the top-up) before rotating.
            while executed % quantum and frames:
                executed += step_n(thread, quantum - executed % quantum)
        return runtime.main_thread.result

    def call_sync(self, thread: JThread, qualified: str,
                  args: List[object]) -> object:
        """Run one call to completion on ``thread`` (no interleaving)."""
        frame = self._push_call(thread, qualified, args)
        if frame is None:
            # Native fast path: _push_call already ran it.
            return self._sync_results.pop(thread.thread_id, None)
        marks = self._sync_marks.setdefault(thread.thread_id, [])
        marks.append(frame.depth)
        base = frame.depth
        while thread.stack.depth > base:
            self.step_n(thread, 4096, stop_depth=base)
        return self._sync_results.pop(thread.thread_id, None)

    # ------------------------------------------------------------------
    # Invocation plumbing
    # ------------------------------------------------------------------

    def _push_call(self, thread: JThread, qualified: str,
                   args: List[object]):
        method = self.runtime.program.resolve(qualified)
        if len(args) != method.nargs:
            raise VerifyError(
                f"{qualified} expects {method.nargs} args, got {len(args)}"
            )
        if method.native is not None:
            result = self._run_native(thread, method, list(args))
            self._sync_results[thread.thread_id] = (
                None if result is VOID else result
            )
            return None
        return self._push_frame(thread, method, list(args))

    def _push_frame(self, thread: JThread, method: JMethod, args: List[object]):
        frame = self._runtime_push(thread, method, method.nlocals)
        for i, value in enumerate(args):
            frame.locals[i] = value
        return frame

    def _run_native(self, thread: JThread, method: JMethod,
                    args: List[object]) -> object:
        runtime = self.runtime
        plan = runtime.config.faults
        if plan is not None and plan.should_fire("native.call"):
            report = inject(
                runtime, "native.call", "escape",
                f"injected native-call failure in {method.qualified_name}",
                method=method.qualified_name, thread=thread.name,
            )
            raise NativeCallFault(report)
        env = NativeEnv(self.runtime, thread)
        result = method.native(env, args)
        if isinstance(result, Handle):
            # A reference crossing the native boundary cannot be tied to a
            # frame the collector can see (section 3.3).
            if self.runtime.collector is not None:
                self.runtime.collector.on_native_escape(result)
        return result

    def _return(self, thread: JThread, value: object) -> None:
        frame = self._runtime_pop(thread)
        marks = self._sync_marks.get(thread.thread_id)
        if marks and marks[-1] == frame.depth:
            marks.pop()
            self._sync_results[thread.thread_id] = (
                None if value is VOID else value
            )
            return
        if thread.stack.frames:
            if value is not VOID:
                thread.stack.frames[-1].stack.append(value)
        else:
            thread.result = None if value is VOID else value

    def _resolve_static(self, operand) -> Tuple[JClass, str]:
        """Resolve (and cache) a getstatic/putstatic operand."""
        if type(operand) is tuple:
            cls_name, field = operand
        else:
            cls_name, field = operand.rsplit(".", 1)
        ref = (self.runtime.program.lookup(cls_name), field)
        self._static_refs[operand] = ref
        return ref

    # ------------------------------------------------------------------
    # The dispatch loop
    # ------------------------------------------------------------------

    def _step_n_sliced(self, thread: JThread, budget: int,
                       stop_depth: int = 0) -> int:
        """``step_n`` wrapper installed when something can fall due
        mid-slice: an ``interp.step`` trap, a periodic GC or a heartbeat.

        Runs the selected loop in chunks that end short of the next due
        point, so an observed run takes the same dispatch loops as a plain
        one and every chunk flushes its ticks once.  A trap due before the
        next instruction raises a :class:`TrapFault` carrying a crash dump
        — the deterministic analogue of hitting a corrupt opcode — and
        pre-empts a GC due at the same boundary.  An event due at op ``D``
        fires with ``runtime.ops == D`` just before the decoded instruction
        that ticks ``D`` runs; implicit end-of-code returns never tick, so
        one at the top frame runs alone first.
        """
        runtime = self.runtime
        plan = self._traps
        inner = self._inner_step_n
        frames = thread.stack.frames
        threads = self._threads
        total = 0
        while total < budget:
            chunk = budget - total
            if plan is not None:
                gap = plan.hits_until_fire("interp.step")
                if gap == 0:
                    firing = plan.consume_fire("interp.step")
                    report = inject(
                        runtime, "interp.step", "trap",
                        f"injected trap at instruction "
                        f"{self.instructions_executed} (firing {firing})",
                        thread=thread.name, depth=thread.stack.depth,
                    )
                    raise TrapFault(report)
                if gap is not None and gap < chunk:
                    chunk = gap
            due = runtime.next_due()
            if due is not None:
                gap = due - 1 - runtime.ops
                if gap <= 0:
                    # The next decoded instruction ticks the due op: fire,
                    # then run it alone.  An implicit end-of-code return on
                    # top never ticks, so it runs alone before the firing.
                    if len(frames) <= stop_depth:
                        return total
                    frame = frames[-1]
                    if frame.pc < len(frame.method.code):
                        runtime.fire_due()
                    chunk = 1
                elif gap < chunk:
                    chunk = gap
            registered = len(threads)
            executed = inner(thread, chunk, stop_depth)
            if plan is not None:
                plan.charge("interp.step", executed)
            total += executed
            if executed < chunk or len(threads) != registered:
                # The thread drained to stop_depth, or a SliceEnd cut the
                # slice (a second thread became runnable, possibly at the
                # chunk's last instruction); no more instructions.
                return total
        return total

    def step_n(self, thread: JThread, budget: int, stop_depth: int = 0) -> int:
        """Execute up to ``budget`` instructions on ``thread``.

        Returns the number of instructions actually executed: less than
        the budget when the thread's stack drains down to ``stop_depth``
        (used by :meth:`call_sync` so a native callback doesn't run past
        its own caller's frame) or when a :class:`SliceEnd` ends the
        slice.  ``budget`` is one quantum, one lone slice
        (:data:`LONE_SLICE_QUANTA` quanta), a quantum's top-up or a
        ``call_sync`` chunk, or a piece of one that :meth:`_step_n_sliced`
        ended short of a due point.
        """
        runtime = self.runtime
        executed = 0
        frames = thread.stack.frames
        handlers = _HANDLERS
        op_count = bc.OP_COUNT
        # The slice never reaches a due periodic GC or heartbeat (the
        # step_n wrapper ends it short of one), so ``tick`` is pure
        # accounting: charge the whole slice in one call.  Only decoded
        # instructions tick, never the implicit end-of-code return; the
        # flush happens even if a handler raises, so the op count includes
        # the faulting instruction.
        ticked = 0
        try:
            while executed < budget and len(frames) > stop_depth:
                frame = frames[-1]
                code = frame.method.code
                pc = frame.pc
                if pc >= len(code):
                    # Fell off the end: implicit return void.
                    self._return(thread, VOID)
                    executed += 1
                    continue
                op, a, b = code[pc]
                frame.pc = pc + 1
                executed += 1
                ticked += 1
                if op >= op_count or op < 0:
                    raise VerifyError(f"unknown opcode {op}")
                handlers[op](self, runtime, thread, frame, a, b)
        except SliceEnd:
            pass
        finally:
            if ticked:
                runtime.tick(ticked)
        self.instructions_executed += executed
        return executed

    # ------------------------------------------------------------------
    # Tiered dispatch: the table handlers plus generated code
    # (repro.jvm.compiledcode)
    # ------------------------------------------------------------------

    def _py_compiled_for(self, method: JMethod):
        """Link and, on a codegen-cache miss, codegen ``method`` (once per
        runtime).  Both are charged to ``PHASE_CODEGEN``."""
        from .compiledcode import compile_method_py

        started = perf_counter()
        compiled = compile_method_py(self, method)
        elapsed = perf_counter() - started
        self.codegen_seconds += elapsed
        profiler = self.runtime.profiler
        if profiler.enabled:
            profiler.add(PHASE_CODEGEN, elapsed)
        self._pycache[method] = compiled
        return compiled

    def _py_cached_for(self, method: JMethod):
        """Cache-only twin of :meth:`_py_compiled_for`: adopt a form
        generated earlier in this process without ever running the
        codegen, or return ``None``.  The link and binding rebuild a hit
        still pays are charged to ``PHASE_CODEGEN`` like any other warmup
        cost; a miss links nothing."""
        from .compiledcode import cached_method_py

        started = perf_counter()
        compiled = cached_method_py(self, method)
        elapsed = perf_counter() - started
        if compiled is None:
            return None
        self.codegen_seconds += elapsed
        profiler = self.runtime.profiler
        if profiler.enabled:
            profiler.add(PHASE_CODEGEN, elapsed)
        self._pycache[method] = compiled
        return compiled

    #: VM call depth at which a generated invoke site stops entering its
    #: callee's generated code directly and hands the pushed frame to the
    #: driver instead.  Direct calls nest one Python frame per VM frame,
    #: so this keeps deep recursion (raytrace) far from Python's own
    #: recursion limit; past the guard the driver runs each deeper frame
    #: from its own loop.
    CALL_THREAD_MAX_DEPTH = 64

    #: Hotness score of one loop backedge retired on the table handlers
    #: (a driver visit scores 1): a tight loop should get hot in a few
    #: iterations, not a few thousand visits.
    PROMOTE_BACKEDGE_WEIGHT = 8

    def _step_n_tiered(self, thread: JThread, budget: int,
                       stop_depth: int = 0) -> int:
        """The tiered-dispatch loop: profile-guided promotion from the
        table handlers to generated code.

        A method with no generated form runs a table segment — the table
        loop's own decode, count and handler call — while a hotness score
        accumulates: +1 per driver visit, +:data:`PROMOTE_BACKEDGE_WEIGHT`
        per backward branch retired in the segment.  The segment stops at
        the backedge that brings the score to ``promote_after``, and the
        method is promoted at its next visit: linked and codegenned, then
        entered through its generated ``run`` at every leader pc.  (Stopping
        there keeps promotion independent of slice length: a loop shorter
        than one lone slice is promoted too.)  A promoted method's deopts
        and each slice's tail run a table segment too, up to the next
        leader whose whole block fits the budget.  Every segment also ends
        where the thread's frame depth changes (invoke, return); a native
        invoke leaves it unchanged.

        Tick accounting matches the batched table loop: decoded
        instructions (including a faulting one) tick in one flush per
        call; implicit end-of-code returns (generated ``-2``) are executed
        but never ticked.  On an exception, generated ``run`` stores its
        retired count in the shared ``_nout`` cell so a faulting
        instruction is charged exactly as in the table loop.

        Soundness: the generated code is counter-identical to the table
        oracle on every program (the parity suite sweeps ``promote_after``
        from first-visit to never), and every slow path — first execution,
        deopt, slice tail, error timing — is the oracle's own handler, so
        any per-method interleaving of the two is counter-identical too;
        hotness only decides which spends the wall time.  The score itself
        is derived from driver visits, never from ``runtime.ops``, and is
        read by nothing but this loop.
        """
        runtime = self.runtime
        executed = 0
        frames = thread.stack.frames
        handlers = _HANDLERS
        op_count = bc.OP_COUNT
        _return = self._return
        pycache = self._pycache
        py_for = self._py_compiled_for
        py_cached_for = self._py_cached_for
        probed = self._cache_probed
        hot = self._hotness
        threshold = self._promote_after
        bweight = self.PROMOTE_BACKEDGE_WEIGHT
        nout = self._nout
        unticked = 0
        try:
            while executed < budget and len(frames) > stop_depth:
                frame = frames[-1]
                method = frame.method
                comp = pycache.get(method)
                if comp is None:
                    score = hot.get(method, 0) + 1
                    if score == 1 and method not in probed:
                        # First visit ever: probe the codegen cache once.
                        # The threshold exists to decide whether codegen
                        # pays for itself; a warm cache (bench repeats,
                        # a warm pool worker's later cells) makes it
                        # free, so a hit promotes immediately instead of
                        # re-earning the profile.  Pure wall-time
                        # policy — parity is tier-invariant.
                        probed.add(method)
                        comp = py_cached_for(method)
                        if comp is not None:
                            self.methods_promoted += 1
                    if comp is None and score >= threshold:
                        # Promotion at a call boundary: codegen now and
                        # fall through to the compiled protocol for this
                        # very visit.  The mid-method case (a quantum
                        # tail left pc at a non-leader) is covered by the
                        # table segment below, exactly like a deopt.
                        comp = py_for(method)
                        hot.pop(method, None)
                        self.methods_promoted += 1
                if comp is None:
                    # Cold: stop at the backedge that brings the score to
                    # the threshold, so the next visit promotes.
                    leaders = None
                    hot_at = (threshold - score + bweight - 1) // bweight
                else:
                    # Promoted: generated code at leader pcs.
                    leaders = comp.leaders
                    if frame.pc in leaders:
                        nout[0] = 0
                        try:
                            k, npc = comp.run(frame, thread,
                                              budget - executed, nout)
                        except BaseException:
                            executed += nout[0]
                            u = nout[1]
                            if u:
                                unticked += u
                                nout[1] = 0
                            raise
                        executed += k
                        u = nout[1]
                        if u:
                            # Implicit returns of directly entered callees:
                            # counted in k, excluded from the tick (read
                            # and re-zeroed here so a sync-nested driver
                            # never consumes another level's increments).
                            unticked += u
                            nout[1] = 0
                        if npc == -2:
                            unticked += 1
                            continue
                        if npc < 0:
                            continue
                        frame.pc = npc
                        if executed >= budget:
                            continue
                    # The deopt path and the quantum tail (npc was a
                    # refused leader whose block no longer fits the
                    # budget, or a deopt pc mid-block): only break at a
                    # leader whose whole block is affordable, so ``run``
                    # is never re-entered just to refuse again.
                    blen = comp.blen
                # The table segment: the table loop's order, one handler
                # call per instruction; any pc past the end is the
                # implicit return.
                code = method.code
                depth = len(frames)
                limit = budget - executed
                n = 0
                back = 0
                try:
                    while n < limit:
                        pc = frame.pc
                        if pc >= len(code):
                            _return(thread, VOID)
                            n += 1
                            unticked += 1
                            break
                        op, a, b = code[pc]
                        frame.pc = pc + 1
                        n += 1
                        if op >= op_count or op < 0:
                            raise VerifyError(f"unknown opcode {op}")
                        handlers[op](self, runtime, thread, frame, a, b)
                        if len(frames) != depth:
                            break
                        if leaders is None:
                            if frame.pc <= pc:
                                back += 1
                                if back == hot_at:
                                    break
                        else:
                            pc = frame.pc
                            if pc in leaders and limit - n >= blen[pc]:
                                break
                finally:
                    # Also on a SliceEnd out of the segment.
                    executed += n
                    if leaders is None:
                        hot[method] = score + back * bweight
        except SliceEnd:
            pass
        finally:
            ticked = executed - unticked
            if ticked:
                runtime.tick(ticked)
        self.instructions_executed += executed
        return executed

    # ------------------------------------------------------------------

    def _invoke(self, thread: JThread, frame, method: JMethod) -> None:
        nargs = method.nargs
        stack = frame.stack
        if nargs:
            args = stack[-nargs:]
            del stack[-nargs:]
        else:
            args = []
        if method.native is not None:
            # Convention: natives return VOID for "no value"; anything else
            # (including None, a legitimate null) is pushed for the caller.
            threads = self._threads
            registered = len(threads)
            result = self._run_native(thread, method, args)
            if result is not VOID:
                stack.append(result)
            if len(threads) != registered:
                # A callback spawned: its own SliceEnd only ended the
                # nested call_sync loop, so end this thread's slice here.
                raise SliceEnd
            return
        callee = self._runtime_push(thread, method, method.nlocals)
        callee.locals[:nargs] = args

    def _instanceof(self, obj, cls_name: str) -> int:
        if obj is None:
            return 0
        if not isinstance(obj, Handle):
            return 0
        cls = obj.cls
        while cls is not None:
            if cls.name == cls_name:
                return 1
            cls = cls.superclass
        return 0
