"""Compiled dispatch: the hot half of the tiered mode.

Once ``RuntimeConfig(dispatch="tiered")`` promotes a method, its bytecode
is compiled once per process into generated Python *source* — straight-line
code with the operand stack lowered to Python local variables, branches as
jumps within a ``while`` state machine over basic blocks — ``exec``'d and
bound once per runtime, and cached by the interpreter in ``_pycache``.
Until then, and wherever the generated code gives up, the method runs on
the table loop's opcode handlers.  The generated function has the
shape::

    def run(frame, thread, limit, nout):
        loc = frame.locals
        stack = frame.stack
        tid = thread.thread_id
        frames = thread.stack.frames
        n = 0
        try:
            pc = frame.pc
            while True:
                if pc == 0:          # one arm per basic-block leader
                    ...block body...
                    pc = 7
                    continue
                ...
        except BaseException:
            nout[0] += n
            raise

and returns ``(n, next_pc)`` where ``n`` is the number of instructions
retired and ``next_pc`` is a resumption pc, ``-1`` (frame changed), or
``-2`` (implicit end-of-code return, counted but never ticked, as in the
table loop).

**Stack lowering.**  Within one basic block the codegen tracks a symbolic
*window* of top-of-stack entries — constants, local slots, and temporaries
— so ``const 2 / load 1 / add / store 1`` becomes ``loc[1] = loc[1] + 2``
with no list traffic at all.  Pops beyond the window fall back to real
``stack.pop()`` calls; the window is flushed back onto ``frame.stack``
before every point where the lowered values become observable: allocation
sites (GC roots), invokes, returns, raises, deopts, and block exits (a
direct call moves them into the callee's locals instead, see below).

**Counting.**  ``n`` must equal the instructions actually retired at every
observable point, so CG counters, ``runtime.ops``, injected-trap indices,
and quantum boundaries stay bit-identical with the table loop.
Pure, non-raising instructions batch their increments into a compile-time
``pending`` count; ``pending`` is flushed into ``n`` (plus one for the
current instruction) immediately *before* every instruction that can raise
or call a runtime service — the same "count then execute" order as the
table loop's ``executed += 1; handlers[op](...)``.  A block is entered
only if the whole block fits the remaining budget (``limit - n < blen``
refuses at the block's entry pc); the driving loop fills the tail of a
quantum by single-stepping table handlers, so per-quantum totals and
thread interleavings never change.  (One accepted divergence: a
*type*-confused pure instruction — e.g. ``add`` on a Handle — raises with
up to a trace's ``pending`` uncounted; no assembled program does this,
and every checked error path — div-zero, null checks, verify errors,
service faults — flushes first.)

**Linking and deopt.**  The generated code reads the link result of
:func:`repro.jvm.closurecode.compile_method` as speculative constants:
resolved statics/classes/methods and each invokevirtual site's
receiver-class table, which a miss on a Handle receiver fills in place
(:func:`~repro.jvm.closurecode.link_virtual`).  Every speculation is
protected by a guard that *deopts* — returns ``(n, pc)`` with the
current pc — whenever a resolution failed, the receiver is not a Handle,
or its class does not link.  The driving loop then executes that
instruction through its table handler (raising the error with exactly
the table loop's timing) and re-enters compiled code at the next
affordable leader pc.  ``spawn``, unknown opcodes, and malformed
operands deopt statically the same way, so every slow path is the table
oracle's own code.

**Direct calls.**  An invoke site pushes the callee frame inline (frame
id, ``thread.started``, arguments moved into the callee's locals —
straight from the symbolic window when an invokevirtual site's receiver
and arguments are still there) and calls the callee's generated ``run``
in place, so a VM call between promoted methods costs two Python frames
(``Frame.__init__`` and the callee's ``run``), and continues inline at
the post-call leader when the callee has returned.  ``return``/
``retval`` and the implicit return pop their own frame inline: the CG
frame-pop event runs only when the frame has blocks or the collector
traces (the same no-action idiom as the inlined ``on_access`` guard),
and a return at a ``call_sync`` mark still delivers to the sync result.
The driver takes over, with the callee on top, when the callee has no
generated form yet (it is never codegenned eagerly), stopped at a resume
pc, left another frame on top, or sits at the depth guard; natives keep
going through ``Interpreter._invoke``.  The retired-instruction stream
is bit-identical, and the additive ``nout[0] += n`` raise protocol above
is what lets a fault propagate through nested generated frames with the
exact retired count.

**Inlined heap services.**  ``getfield``/``putfield``/``aaload``/
``aastore`` replicate the collector's ``on_access`` *no-action* fast path
(live handle, already pinned or same-thread — no counters, no calls) as an
inline guard plus a direct ``fields``/``elements`` access, falling back to
the bound runtime service for every slow condition: freed handles,
cross-thread pins, missing fields, bad indices.  The fast path touches no
counter the service would not touch (``on_access`` counts nothing;
``store_events`` is bumped inline exactly where ``store_field`` would), so
CG statistics stay bit-identical while the hot field walk costs dict ops
instead of two Python frames.
"""

from __future__ import annotations

from typing import (Callable, Dict, FrozenSet, List, NamedTuple, Optional,
                    Tuple)

from . import bytecode as bc
# The link step is called through the module attribute, at call time:
# the perfbench ledger wraps ``closurecode.compile_method`` by name.
from . import closurecode
from .closurecode import LinkState, _split_static_ref
from .errors import NullPointerError, VerifyError
from .frames import Frame
from .heap import Handle
from .model import JMethod, Program

# Imported lazily (interpreter.py imports this module from inside its
# compile hook, so a module-level import would be a cycle).
VOID = None
_div_zero = None


def _bind_interpreter_symbols() -> None:
    global VOID, _div_zero
    if VOID is None:
        from . import interpreter as _interp_mod

        VOID = _interp_mod.VOID
        _div_zero = _interp_mod._div_zero


#: Maximum instructions per generated block.  Long straight-line runs are
#: split at synthetic leaders so the all-or-nothing block budget check
#: refuses at most MAX_BLOCK-1 instructions before a quantum boundary —
#: bounding the handler-dispatched tail of every quantum.
MAX_BLOCK = 8

#: ``op -> (pops, pushes)`` for the straight-line opcodes, used to place
#: synthetic splits where the symbolic stack window is empty so a block
#: boundary costs no ``stack.append``/``stack.pop`` round-trip (and keeps
#: constants visible to the div/mod fold).  Terminators and unknown ops
#: are absent on purpose — a split is never forced across them.
_STACK_EFFECT = {
    bc.CONST: (0, 1), bc.ACONST_NULL: (0, 1), bc.LDC_STR: (0, 1),
    bc.LOAD: (0, 1), bc.STORE: (1, 0), bc.IINC: (0, 0),
    bc.DUP: (1, 2), bc.POP: (1, 0), bc.SWAP: (2, 2),
    bc.NEW: (0, 1), bc.NEWARRAY: (1, 1),
    bc.GETFIELD: (1, 1), bc.PUTFIELD: (2, 0),
    bc.GETSTATIC: (0, 1), bc.PUTSTATIC: (1, 0),
    bc.AALOAD: (2, 1), bc.AASTORE: (3, 0), bc.ARRAYLENGTH: (1, 1),
    bc.INSTANCEOF: (1, 1), bc.INTERN: (1, 1),
    bc.ADD: (2, 1), bc.SUB: (2, 1), bc.MUL: (2, 1),
    bc.DIV: (2, 1), bc.MOD: (2, 1), bc.NEG: (1, 1),
}


def _synthetic_splits(code, lo: int, hi: int) -> List[int]:
    """Split points for the over-long base block ``[lo, hi)``.

    Greedy: track the window size a codegen pass would see and remember
    the latest pc where it is empty; when the current block reaches
    :data:`MAX_BLOCK` instructions, cut at that clean pc (falling back to
    a mid-expression cut only when a single expression spans more than
    :data:`MAX_BLOCK` instructions).
    """
    splits: List[int] = []
    start = lo
    size = 0
    last_clean = None
    pc = lo
    while pc < hi:
        effect = _STACK_EFFECT.get(code[pc][0])
        if effect is None:
            # Terminator/unknown: the codegen ends or deopts the block
            # here anyway, so the boundary is clean.
            size = 0
            last_clean = pc + 1
        else:
            size = max(0, size - effect[0]) + effect[1]
            if size == 0:
                last_clean = pc + 1
        pc += 1
        if pc - start >= MAX_BLOCK and pc < hi:
            if last_clean is not None and last_clean > start:
                cut = last_clean
            else:
                cut = pc
                size = 0  # forced cut: the window spills and resets
            splits.append(cut)
            start = cut
            last_clean = None
    return splits


class PyCompiledMethod(NamedTuple):
    """One method's generated-Python form (per-runtime, interpreter-cached)."""

    #: ``run(frame, thread, limit, nout) -> (n, next_pc)``.
    run: Callable
    #: Valid entry pcs (basic-block leaders incl. synthetic splits and the
    #: ``len(code)`` sentinel).  The driving loop single-steps table
    #: handlers until the pc is a member.
    leaders: FrozenSet[int]
    #: The generated source, kept for inspection and tests.
    source: str
    #: This runtime's link result (:func:`repro.jvm.closurecode.
    #: compile_method`): the resolutions and receiver tables ``run`` reads.
    links: LinkState
    #: leader pc -> its block's instruction count (the exact quantity the
    #: generated budget checks compare against).  A pure driving-loop
    #: heuristic: the quantum tail re-enters generated code only at a
    #: leader whose whole block still fits the remaining budget, so a
    #: refusal round-trip through ``run`` never happens.
    blen: Dict[int, int]


#: Absent-field sentinel for the inlined ``getfield`` fast path.  Never a
#: VM value (VM values are ints, strings, Handles, and None), so
#: ``fields.get(name, _MISS) is _MISS`` is an exact missing-field test.
_MISS = object()


class _NoCollector:
    """Stand-in for a collector-less runtime's collector and its stats, so
    the inlined event fast paths (``_stats.store_events += 1``, the frame-pop
    test) stay branch-free: it never traces, no frame gets CG blocks
    without a collector, and its counters are private to one binding
    environment and never read."""

    __slots__ = ("store_events", "putstatic_events", "frame_pops", "_trace")

    def __init__(self) -> None:
        self.store_events = 0
        self.putstatic_events = 0
        self.frame_pops = 0
        self._trace = False


def _store_ref_tail(runtime) -> Callable:
    """The Handle-value tail of ``Runtime.store_field``/``store_element``
    — contamination merge and/or tracing write barrier — specialised at
    bind time so the overwhelmingly common shape (collector present, no
    tracing barrier) is a direct ``collector.on_store`` call.  The
    value-side ``on_access`` half is inlined at the emission site."""
    collector = runtime.collector
    barrier = runtime._write_barrier_fn
    if collector is not None and barrier is None:
        return collector.on_store
    if collector is not None:
        on_store = collector.on_store

        def tail(container, value):
            on_store(container, value)
            barrier(container, value)

        return tail
    if barrier is not None:
        return barrier

    def no_tail(container, value):
        return None

    return no_tail


def _base_bindings(interp) -> dict:
    """The method-independent names closed over by every generated
    ``_make`` factory — runtime/interpreter services plus a handful of
    builtins.  Per-pc link results and non-literal constants are added
    on top during emission (or rebuilt from the cached binding names on
    a codegen-cache hit)."""
    runtime = interp.runtime
    collector = runtime.collector
    if collector is None:
        collector = stats = _NoCollector()
        on_frame_pop = None  # never called: see _NoCollector
    else:
        stats = collector.stats
        # Taken from the instance, so profiler and ledger wrappers run.
        on_frame_pop = collector.on_frame_pop
    return {
        "_VOID": VOID,
        "_Handle": Handle,
        "_NPE": NullPointerError,
        "_VerifyError": VerifyError,
        "_div_zero": _div_zero,
        "_isinstance": isinstance,
        "_int": int,
        "_allocate": runtime.allocate,
        "_new_string": runtime.new_string,
        "_load_field": runtime.load_field,
        "_store_field": runtime.store_field,
        "_load_element": runtime.load_element,
        "_store_element": runtime.store_element,
        "_access": runtime.access,
        "_intern_s": runtime.intern,
        "_store_static": runtime.store_static,
        "_return_ref": runtime.return_reference,
        "_invoke": interp._invoke,
        "_instanceof": interp._instanceof,
        "_link_virtual": closurecode.link_virtual,
        "_arraycls": runtime.program.classes[Program.ARRAY],
        # Inlined heap-service fast paths (see module docstring).
        "_MISS": _MISS,
        "_stats": stats,
        "_on_store": _store_ref_tail(runtime),
        # Inlined frame push and pop (see module docstring).
        "_Frame": Frame,
        "_ids": runtime.frame_ids,
        "_pyget": interp._pycache.get,
        "_maxdepth": interp.CALL_THREAD_MAX_DEPTH,
        "_cg": collector,
        "_on_frame_pop": on_frame_pop,
        "_sync_marks": interp._sync_marks.get,
        "_sync_results": interp._sync_results,
    }


#: Cross-runtime cache of generated code, keyed by (qualified name,
#: bytecode): ``(source, codeobj, leaders, blen, extra binding names)``.
#: The generated source depends only on the bytecode — link results are
#: *read through* per-runtime bindings at run time, never inspected at
#: codegen time — so a fresh runtime executing the same program (bench
#: repeats, parity differentials, the test suite) skips source generation
#: and ``compile`` and only links and rebuilds the binding environment.
#: It lives in memory only: each process codegens a promoted method once.
_CODEGEN_CACHE: dict = {}
_CODEGEN_CACHE_MAX = 512


def clear_codegen_caches() -> None:
    """Drop the in-memory codegen cache (the bench harness's cold-start
    measurements call this between iterations)."""
    _CODEGEN_CACHE.clear()


def _cache_lookup(method: JMethod):
    """Look up a cached codegen entry.

    Returns ``(key, cached)``; ``key`` is ``None`` for unhashable
    bytecode (which skips the cross-run cache entirely), ``cached`` is
    ``None`` on a miss.
    """
    try:
        key = (method.qualified_name, tuple(method.code))
    except TypeError:  # unhashable operand: skip the cross-run cache
        return None, None
    return key, _CODEGEN_CACHE.get(key)


def _rebuild_bindings(interp, links: LinkState, code, extra) -> dict:
    """Reconstruct a cached entry's binding environment: the base
    services plus the per-pc link results and non-literal constants
    recorded in ``extra`` (names only — the values are always this
    runtime's ``links``, so link state stays per-runtime)."""
    bindings = _base_bindings(interp)
    for name in extra:
        if name.startswith("_q"):
            bindings[name] = links.values[int(name[2:])]
        elif name.startswith("_vt"):
            bindings[name] = links.vcalls[int(name[3:])]
        else:  # _k{pc}: a non-literal constant operand
            bindings[name] = code[int(name[2:])][1]
    return bindings


def cached_method_py(interp, method: JMethod) -> Optional[PyCompiledMethod]:
    """Build ``method``'s generated form from the codegen cache alone, or
    return ``None`` — never invokes the codegen, and links only on a hit.

    The tiered driver probes this on a cold method's first visit: the
    hotness profile exists to decide whether paying for codegen is
    worth it, and a warm cache (bench repeats, a warm pool worker's
    later cells) makes codegen free, so a hit promotes immediately
    instead of re-earning the threshold.  Promotion timing is pure
    wall-time policy — counters are promotion-invariant — so the
    short-circuit can never change results.
    """
    _bind_interpreter_symbols()
    cached = _cache_lookup(method)[1]
    if cached is None:
        return None
    source, codeobj, ordered, blen, extra = cached
    links = closurecode.compile_method(interp, method)
    bindings = _rebuild_bindings(interp, links, method.code, extra)
    namespace: dict = {}
    exec(codeobj, namespace)
    run = namespace["_make"](**bindings)
    return PyCompiledMethod(run, frozenset(ordered), source, links, blen)


def compile_method_py(interp, method: JMethod) -> PyCompiledMethod:
    """Link ``method``, then generate, ``compile`` and ``exec`` its
    Python form (the codegen half is skipped on a codegen-cache hit)."""
    _bind_interpreter_symbols()
    code = method.code
    links = closurecode.compile_method(interp, method)
    key, cached = _cache_lookup(method)
    if cached is not None:
        source, codeobj, ordered, blen, extra = cached
        bindings = _rebuild_bindings(interp, links, code, extra)
    else:
        base = method.block_starts
        if base is None:
            from .assembler import block_leaders

            base = method.block_starts = block_leaders(code)
        leaders = set(base)
        ordered = sorted(leaders)
        for lo, hi in zip(ordered, ordered[1:]):
            if hi - lo > MAX_BLOCK:
                leaders.update(_synthetic_splits(code, lo, hi))
        ordered = sorted(leaders)
        gen = _Codegen(interp, method, links, ordered)
        source = gen.generate()
        # Counted here, not in the interpreter wrapper: only a true
        # generation (a cache miss) is a "codegenned" method.
        interp.methods_codegenned += 1
        codeobj = compile(source, f"<compiled {method.qualified_name}>", "exec")
        bindings = gen.bindings
        blen = {lo: hi - lo for lo, hi in zip(ordered, ordered[1:])}
        blen[ordered[-1]] = 1  # the len(code) sentinel block
        if key is not None:
            if len(_CODEGEN_CACHE) >= _CODEGEN_CACHE_MAX:
                _CODEGEN_CACHE.clear()
            extra = tuple(
                name for name in bindings if name.startswith(("_q", "_vt", "_k"))
            )
            _CODEGEN_CACHE[key] = (source, codeobj, ordered, blen, extra)
    namespace: dict = {}
    exec(codeobj, namespace)
    run = namespace["_make"](**bindings)
    return PyCompiledMethod(run, frozenset(ordered), source, links, blen)


#: Comparison branches -> Python operator (int compares and identity).
_CMP_OPS = {
    bc.IF_ICMPEQ: "==", bc.IF_ICMPNE: "!=",
    bc.IF_ICMPLT: "<", bc.IF_ICMPLE: "<=",
    bc.IF_ICMPGT: ">", bc.IF_ICMPGE: ">=",
    bc.IF_ACMPEQ: "is", bc.IF_ACMPNE: "is not",
}

#: Single-operand conditional branches -> condition template.
_IF1_OPS = {
    bc.IFZERO: "{} == 0", bc.IFNZERO: "{} != 0",
    bc.IFNULL: "{} is None", bc.IFNONNULL: "{} is not None",
}

#: Opcodes that end a dispatch arm (control leaves the block other than
#: by falling through): a block whose final instruction is one of these
#: never chains into a trace.  ``GOTO`` is the one exception, handled
#: separately — an unconditional jump to a known leader *threads*: the
#: trace continues at the target block with the jump itself retired into
#: the trace, so a loop body merges with its header and costs one
#: dispatch per iteration instead of one per block.
_ARM_ENDERS = frozenset(bc.BRANCH_OPS) | {
    bc.RETURN, bc.RETVAL, bc.INVOKESTATIC, bc.INVOKEVIRTUAL, bc.SPAWN,
}


class _Codegen:
    """One-pass bytecode-to-Python-source generator for a single method.

    Emission state per basic block: ``window`` is the symbolic top of the
    operand stack (entries ``("const", expr)``, ``("local", i)``,
    ``("temp", name)``; bottom first), ``pending`` the count of retired
    instructions not yet added to ``n``.  Both reset at block entry and
    drain at every observable point (see module docstring).
    """

    def __init__(self, interp, method: JMethod, links: LinkState,
                 leaders: List[int]) -> None:
        self.code = method.code
        self.ilen = len(method.code)
        self.links = links
        self.leaders = leaders
        self.lindex = {pc: i for i, pc in enumerate(leaders)}
        self.lines: List[str] = []
        self.window: List[Tuple[str, object]] = []
        self.pending = 0
        self.ntemp = 0
        #: Name -> object closed over by the generated ``_make`` factory.
        #: Per-pc link results and non-literal constants are added
        #: during emission.
        self.bindings = _base_bindings(interp)

    # ------------------------------------------------------------------
    # Top level
    # ------------------------------------------------------------------

    def generate(self) -> str:
        self._emit_dispatch(0, len(self.leaders), 4)
        body = self.lines
        head = [
            # Bindings become closure cells of ``run`` (LOAD_DEREF), the
            # cheapest non-local access the interpreter loop can get.
            f"def _make({', '.join(sorted(self.bindings))}):",
            "    def run(frame, thread, limit, nout):",
            "        loc = frame.locals",
            "        stack = frame.stack",
            "        tid = thread.thread_id",
            "        frames = thread.stack.frames",
            "        n = 0",
            "        try:",
            "            pc = frame.pc",
            "            while True:",
        ]
        tail = [
            "        except BaseException:",
            "            nout[0] += n",
            "            raise",
            "    return run",
        ]
        return "\n".join(head + body + tail) + "\n"

    def emit(self, level: int, text: str) -> None:
        self.lines.append("    " * level + text)

    def _emit_dispatch(self, lo: int, hi: int, indent: int) -> None:
        """Binary dispatch tree over leader pcs; leaves are linear chains.

        Every chain ends in ``else: return n, pc`` so a non-leader entry
        pc (mid-block resume after a deopt) hands control straight back to
        the driving loop's table single-step.
        """
        if hi - lo <= 4:
            keyword = "if"
            for idx in range(lo, hi):
                self.emit(indent, f"{keyword} pc == {self.leaders[idx]}:")
                self._emit_block(idx, indent + 1)
                keyword = "elif"
            self.emit(indent, "else:")
            self.emit(indent + 1, "return n, pc")
        else:
            mid = (lo + hi) // 2
            self.emit(indent, f"if pc < {self.leaders[mid]}:")
            self._emit_dispatch(lo, mid, indent + 1)
            self.emit(indent, "else:")
            self._emit_dispatch(mid, hi, indent + 1)

    #: Instruction budget for one dispatch arm's fast path: fall-through
    #: and goto-threaded successor blocks are merged into a single trace
    #: (a visited set stops the walk at a cycle) — one upfront
    #: budget check, ``pending`` batched and the stack window kept across
    #: block boundaries — until the trace reaches this many instructions.
    #: Every block still has its own arm for mid-trace entry, and a slow
    #: copy of the arm's first block keeps refusal at MAX_BLOCK
    #: granularity near quantum boundaries, so the handler-dispatched
    #: tail stays short.  The cap bounds code growth.
    MAX_TRACE = 48

    def _emit_block(self, idx: int, indent: int) -> None:
        leaders = self.leaders
        start = leaders[idx]
        emit = self.emit
        if start == self.ilen:
            # The implicit-return sentinel: counted, reported -2 so the
            # driving loop excludes it from runtime.tick.
            emit(indent, "if limit - n < 1:")
            emit(indent + 1, f"return n, {start}")
            emit(indent, "n += 1")
            self._emit_return(indent, None, -2)
            return
        end = leaders[idx + 1]
        # A trace is worth building only when this block continues into
        # another real block — by falling through, or by an unconditional
        # goto to a different leader (goto threading).
        last = self.code[end - 1]
        if last[0] == bc.GOTO:
            dual = (isinstance(last[1], int) and last[1] in self.lindex
                    and last[1] != self.ilen and last[1] != start)
        elif last[0] in _ARM_ENDERS:
            dual = False
        else:
            dual = end < self.ilen
        if not dual:
            self._emit_single(idx, indent)
            return
        # Dual form.  Slow path (budget below the whole trace): execute
        # just the first block — with its all-or-nothing check — then
        # re-dispatch, so refusal granularity near a quantum boundary
        # stays at MAX_BLOCK.  Fast path: the merged trace below.
        guard_pos = len(self.lines)
        emit(indent, "")  # patched to "if limit - n < <total>:" below
        self._emit_single(idx, indent + 1)
        # Fast path: merged trace.  No intermediate budget checks (the
        # guard covered every block's full length), ``pending`` spans
        # block boundaries, and the window stays symbolic across them —
        # every exit point (deopt, raise, invoke, trace end) still drains
        # both exactly.
        total = 0
        j = idx
        visited = set()
        lindex = self.lindex
        code = self.code
        del self.window[:]
        self.pending = 0
        while True:
            s = leaders[j]
            if s == self.ilen:
                self._count(indent)
                self._flush(indent)
                emit(indent, f"pc = {s}")
                emit(indent, "continue")
                break
            visited.add(s)
            e = leaders[j + 1]
            total += e - s
            # Goto threading: an unconditional jump to a known leader is
            # retired into the trace (no emitted transfer) and emission
            # continues at the target block.
            target = None
            stop = e
            last = code[e - 1]
            if (last[0] == bc.GOTO and isinstance(last[1], int)
                    and last[1] in lindex and last[1] != self.ilen):
                target = last[1]
                stop = e - 1
            terminated = False
            for pc in range(s, stop):
                if self._emit_instruction(pc, indent):
                    terminated = True
                    break
            if terminated:
                break
            if target is None:
                nxt = e
            else:
                self.pending += 1
                nxt = target
            if total >= self.MAX_TRACE or nxt in visited:
                self._count(indent)
                self._flush(indent)
                emit(indent, f"pc = {nxt}")
                emit(indent, "continue")
                break
            j = lindex[nxt]
        self.lines[guard_pos] = (
            "    " * indent + f"if limit - n < {total}:"
        )

    def _emit_single(self, idx: int, indent: int) -> None:
        """One block on its own: all-or-nothing budget check, body, and
        an explicit transfer when it falls through."""
        start = self.leaders[idx]
        end = self.leaders[idx + 1]
        emit = self.emit
        # Refuse at the block's entry pc if the whole block does not
        # fit, and let the driving loop fill the quantum tail via
        # table single-steps.  n only ever charges instructions
        # actually retired, so refusal is invisible.
        emit(indent, f"if limit - n < {end - start}:")
        emit(indent + 1, f"return n, {start}")
        del self.window[:]
        self.pending = 0
        for pc in range(start, end):
            if self._emit_instruction(pc, indent):
                return
        self._count(indent)
        self._flush(indent)
        emit(indent, f"pc = {end}")
        emit(indent, "continue")

    # ------------------------------------------------------------------
    # Emission state helpers
    # ------------------------------------------------------------------

    def tmp(self) -> str:
        self.ntemp += 1
        return f"t{self.ntemp}"

    def _expr(self, entry) -> str:
        kind, value = entry
        return f"loc[{value}]" if kind == "local" else value

    def _pop(self, indent: int):
        """Pop the symbolic top of stack (real ``stack.pop()`` past the
        window — window entries always sit above real-stack entries, so
        mixed pops keep the original order)."""
        if self.window:
            return self.window.pop()
        t = self.tmp()
        self.emit(indent, f"{t} = stack.pop()")
        return ("temp", t)

    def _multi(self, entry, indent: int):
        """An entry safe (and cheap) to reference more than once: local
        slots are copied into a Python temp first."""
        if entry[0] == "local":
            t = self.tmp()
            self.emit(indent, f"{t} = {self._expr(entry)}")
            return ("temp", t)
        return entry

    def _materialize_local(self, index: int, indent: int) -> None:
        """Snapshot window entries reading local ``index`` before a write
        to it (store/iinc) changes what ``loc[index]`` would yield."""
        for i, entry in enumerate(self.window):
            if entry[0] == "local" and entry[1] == index:
                t = self.tmp()
                self.emit(indent, f"{t} = loc[{index}]")
                self.window[i] = ("temp", t)

    def _spill(self, indent: int) -> None:
        """Emit appends pushing the window onto the real stack (state kept:
        used inside guard branches whose fast path continues lowered)."""
        for entry in self.window:
            self.emit(indent, f"stack.append({self._expr(entry)})")

    def _flush(self, indent: int) -> None:
        self._spill(indent)
        # In place: _emit_instruction holds an alias to the window list.
        del self.window[:]

    def _count(self, indent: int, extra: int = 0) -> None:
        """Flush ``pending`` (+ ``extra`` for the current instruction)
        into ``n`` — emitted before every can-raise point so ``n`` counts
        a faulting instruction exactly as the table loop does."""
        total = self.pending + extra
        if total:
            self.emit(indent, f"n += {total}")
        self.pending = 0

    def _deopt_if(self, indent: int, cond: str, pc: int) -> None:
        """Guard: bail to the table handler at ``pc`` when ``cond`` holds.
        The current instruction has *not* executed, so only ``pending``
        flushes; window state is spilled but kept for the fast path."""
        self.emit(indent, f"if {cond}:")
        if self.pending:
            self.emit(indent + 1, f"n += {self.pending}")
        self._spill(indent + 1)
        self.emit(indent + 1, f"return n, {pc}")

    def _deopt(self, indent: int, pc: int) -> bool:
        """Unconditional deopt (spawn, unknown/malformed instructions)."""
        self._count(indent)
        self._flush(indent)
        self.emit(indent, f"return n, {pc}")
        return True

    def _raise_guard(self, indent: int, cond: str, exc: str) -> None:
        """Null-check-style raise: call after ``_count`` so the faulting
        instruction is already charged; spill so the frame's real stack
        matches the table handler's at the raise."""
        self.emit(indent, f"if {cond}:")
        self._spill(indent + 1)
        self.emit(indent + 1, f"raise {exc}")

    def _access_guard(self, indent: int, e: str) -> None:
        """Inline ``collector.on_access``'s no-action fast path — live
        handle, already pinned or allocated by this thread: no counters,
        no calls — and fall through to the bound service for the rest
        (freed handles raise, cross-thread access pins).  Collector-less
        runtimes over-approximate harmlessly: ``_access`` is then just
        ``check_live``, a no-op on a live handle.  ``e`` must be a temp
        or constant expression (safe to evaluate repeatedly)."""
        self.emit(indent, f"if ({e}).freed or (({e}).pinned_cause is None "
                          f"and ({e}).alloc_thread != tid):")
        self.emit(indent + 1, f"_access({e}, thread)")

    def _const_expr(self, pc: int, value) -> str:
        if value is None or isinstance(value, (bool, int, str)):
            return repr(value)
        name = f"_k{pc}"
        self.bindings[name] = value
        return name

    def _linked(self, pc: int) -> str:
        name = f"_q{pc}"
        self.bindings[name] = self.links.values[pc]
        return name

    def _vtable(self, pc: int) -> str:
        name = f"_vt{pc}"
        self.bindings[name] = self.links.vcalls[pc]
        return name

    def _emit_call(self, indent: int, m: str, nxt: int, args) -> None:
        """Invoke tail: enter the callee's generated code directly (see
        "Direct calls" in the module docstring).  ``m`` names the resolved
        method, already counted; ``args`` holds the window entries of its
        arguments, bottom first, or is ``None`` when ``m.nargs`` of them
        sit on the real stack."""
        emit = self.emit
        d, callee, comp, k, p = (self.tmp() for _ in range(5))
        emit(indent, f"frame.pc = {nxt}")
        emit(indent, f"if {m}.native is None:")
        body = indent + 1
        emit(body, f"{d} = len(frames)")
        emit(body, f"{callee} = _Frame(_ids._next, {d}, tid, {m}, {m}.nlocals)")
        emit(body, "_ids._next += 1")
        emit(body, f"frames.append({callee})")
        emit(body, "thread.started = True")
        if args is None:
            emit(body, f"{k} = {m}.nargs")
            emit(body, f"if {k}:")
            emit(body + 1, f"{callee}.locals[:{k}] = stack[-{k}:]")
            emit(body + 1, f"del stack[-{k}:]")
        elif len(args) == 1:
            emit(body, f"{callee}.locals[0] = {self._expr(args[0])}")
        else:
            emit(body, f"{k} = {callee}.locals")
            for i, entry in enumerate(args):
                emit(body, f"{k}[{i}] = {self._expr(entry)}")
        emit(body, f"{comp} = _pyget({m})")
        emit(body, f"if {comp} is None or {d} >= _maxdepth:")
        emit(body + 1, "return n, -1")
        emit(body, f"{k}, {p} = {comp}.run({callee}, thread, limit - n, nout)")
        emit(body, f"n += {k}")
        emit(body, f"if {p} != -1:")
        emit(body + 1, f"if {p} != -2:")
        emit(body + 2, f"{callee}.pc = {p}")
        emit(body + 2, "return n, -1")
        emit(body + 1, "nout[1] += 1")
        emit(body, "if frames[-1] is not frame:")
        emit(body + 1, "return n, -1")
        emit(indent, "else:")
        if args is not None:
            for entry in args:
                emit(indent + 1, f"stack.append({self._expr(entry)})")
        emit(indent + 1, f"_invoke(thread, frame, {m})")
        emit(indent, f"pc = {nxt}")
        emit(indent, "continue")

    def _emit_return(self, indent: int, value: Optional[str],
                     npc: int) -> None:
        """Inline ``Interpreter._return`` for ``frame``, delivering
        ``value`` (``None`` for void), then ``return n, npc``.
        ``_cg._trace`` is read at pop time: ``set_tracer`` can flip it."""
        emit = self.emit
        marks = self.tmp()
        emit(indent, "frames.pop()")
        emit(indent, "frame.popped = True")
        emit(indent, "if frame.cg_blocks or _cg._trace:")
        emit(indent + 1, "_on_frame_pop(frame)")
        emit(indent, "else:")
        emit(indent + 1, "_stats.frame_pops += 1")
        emit(indent, f"{marks} = _sync_marks(tid)")
        emit(indent, f"if {marks} and {marks}[-1] == frame.depth:")
        emit(indent + 1, f"{marks}.pop()")
        emit(indent + 1, f"_sync_results[tid] = {value}")
        if value is None:
            emit(indent, "elif not frames:")
            emit(indent + 1, "thread.result = None")
        else:
            emit(indent, "elif frames:")
            emit(indent + 1, f"frames[-1].stack.append({value})")
            emit(indent, "else:")
            emit(indent + 1, f"thread.result = {value}")
        emit(indent, f"return n, {npc}")

    def _branch_target_ok(self, a) -> bool:
        return isinstance(a, int) and 0 <= a <= self.ilen

    @staticmethod
    def _const_int_nonzero(entry) -> bool:
        """True when a window entry is a nonzero int constant literal.

        ``const`` pushes ``("const", repr(value))``; for div/mod folding we
        only trust plain int reprs (not bools — ``repr(True)`` is not a
        digit string).
        """
        if entry[0] != "const":
            return False
        text = entry[1]
        if text.startswith("-"):
            text = text[1:]
        return text.isdigit() and int(text) != 0

    # ------------------------------------------------------------------
    # Per-instruction emission (returns True when the block is terminated)
    # ------------------------------------------------------------------

    def _emit_instruction(self, pc: int, indent: int) -> bool:
        op, a, b = self.code[pc]
        nxt = pc + 1
        emit = self.emit
        window = self.window

        if op == bc.CONST:
            window.append(("const", self._const_expr(pc, a)))
            self.pending += 1
            return False

        if op == bc.ACONST_NULL:
            window.append(("const", "None"))
            self.pending += 1
            return False

        if op == bc.LOAD:
            if not isinstance(a, int):
                return self._deopt(indent, pc)
            window.append(("local", a))
            self.pending += 1
            return False

        if op == bc.STORE:
            if not isinstance(a, int):
                return self._deopt(indent, pc)
            value = self._pop(indent)
            self._materialize_local(a, indent)
            emit(indent, f"loc[{a}] = {self._expr(value)}")
            self.pending += 1
            return False

        if op == bc.IINC:
            if not isinstance(a, int) or not isinstance(b, int):
                return self._deopt(indent, pc)
            self._materialize_local(a, indent)
            emit(indent, f"loc[{a}] += {b}")
            self.pending += 1
            return False

        if op == bc.DUP:
            if window:
                window.append(window[-1])
            else:
                t = self.tmp()
                emit(indent, f"{t} = stack[-1]")
                window.append(("temp", t))
            self.pending += 1
            return False

        if op == bc.POP:
            if window:
                window.pop()
            else:
                emit(indent, "stack.pop()")
            self.pending += 1
            return False

        if op == bc.SWAP:
            if len(window) >= 2:
                window[-1], window[-2] = window[-2], window[-1]
            elif len(window) == 1:
                # Real top moves above the lone window entry.
                t = self.tmp()
                emit(indent, f"{t} = stack.pop()")
                window.append(("temp", t))
            else:
                emit(indent, "stack[-1], stack[-2] = stack[-2], stack[-1]")
            self.pending += 1
            return False

        if op in (bc.ADD, bc.SUB, bc.MUL):
            sym = {bc.ADD: "+", bc.SUB: "-", bc.MUL: "*"}[op]
            y = self._pop(indent)
            x = self._pop(indent)
            t = self.tmp()
            emit(indent, f"{t} = {self._expr(x)} {sym} {self._expr(y)}")
            window.append(("temp", t))
            self.pending += 1
            return False

        if op == bc.NEG:
            value = self._pop(indent)
            t = self.tmp()
            emit(indent, f"{t} = -({self._expr(value)})")
            window.append(("temp", t))
            self.pending += 1
            return False

        if op == bc.DIV:
            y = self._multi(self._pop(indent), indent)
            x = self._multi(self._pop(indent), indent)
            ex, ey = self._expr(x), self._expr(y)
            t = self.tmp()
            if self._const_int_nonzero(y):
                # Folded: the divisor is a compile-time nonzero int, so
                # the zero check is dead and the instruction is as pure
                # as add/mul — no count flush, one statement.
                emit(indent,
                     f"{t} = _int({ex} / {ey}) "
                     f"if _isinstance({ex}, _int) else {ex} / {ey}")
                window.append(("temp", t))
                self.pending += 1
                return False
            self._count(indent, 1)
            emit(indent, f"if _isinstance({ex}, _int) and _isinstance({ey}, _int):")
            emit(indent + 1, f"if {ey} == 0:")
            self._spill(indent + 2)
            emit(indent + 2, "_div_zero()")
            emit(indent + 1, f"{t} = _int({ex} / {ey})")
            emit(indent, "else:")
            emit(indent + 1, f"{t} = {ex} / {ey}")
            window.append(("temp", t))
            return False

        if op == bc.MOD:
            y = self._multi(self._pop(indent), indent)
            x = self._multi(self._pop(indent), indent)
            ex, ey = self._expr(x), self._expr(y)
            t = self.tmp()
            if self._const_int_nonzero(y):
                emit(indent, f"{t} = {ex} - _int({ex} / {ey}) * {ey}")
                window.append(("temp", t))
                self.pending += 1
                return False
            self._count(indent, 1)
            emit(indent, f"if {ey} == 0:")
            self._spill(indent + 1)
            emit(indent + 1, "_div_zero()")
            emit(indent, f"{t} = {ex} - _int({ex} / {ey}) * {ey}")
            window.append(("temp", t))
            return False

        if op == bc.GETFIELD:
            obj = self._multi(self._pop(indent), indent)
            self._count(indent, 1)
            eo = self._expr(obj)
            self._raise_guard(indent, f"{eo} is None",
                              f"_NPE({f'getfield {a} on null'!r})")
            # Inlined ``Runtime.load_field``: access guard + direct dict
            # read; ``_load_field`` is the fallback for missing fields
            # (exact VMError text) and for any slow access condition the
            # guard already routed through ``_access``.
            self._access_guard(indent, eo)
            t = self.tmp()
            emit(indent, f"{t} = ({eo}).fields")
            emit(indent, f"{t} = _MISS if {t} is None "
                         f"else {t}.get({a!r}, _MISS)")
            emit(indent, f"if {t} is _MISS:")
            emit(indent + 1, f"{t} = _load_field({eo}, {a!r}, thread)")
            window.append(("temp", t))
            return False

        if op == bc.PUTFIELD:
            value = self._multi(self._pop(indent), indent)
            obj = self._multi(self._pop(indent), indent)
            self._count(indent, 1)
            eo = self._expr(obj)
            ev = self._expr(value)
            self._raise_guard(indent, f"{eo} is None",
                              f"_NPE({f'putfield {a} on null'!r})")
            # Inlined ``Runtime.store_field``: access guard, membership
            # check (missing fields fall back for the exact VMError —
            # before any mutation, and the service's re-access is
            # idempotent), direct assignment, then the reference tail
            # (value access guard + contamination merge) or the inline
            # ``store_events`` bump for non-Handle values.
            self._access_guard(indent, eo)
            t = self.tmp()
            emit(indent, f"{t} = ({eo}).fields")
            emit(indent, f"if {t} is None or {a!r} not in {t}:")
            emit(indent + 1, f"_store_field({eo}, {a!r}, {ev}, thread)")
            emit(indent, "else:")
            emit(indent + 1, f"{t}[{a!r}] = {ev}")
            emit(indent + 1, f"if _isinstance({ev}, _Handle):")
            self._access_guard(indent + 2, ev)
            emit(indent + 2, f"_on_store({eo}, {ev})")
            emit(indent + 1, "else:")
            emit(indent + 2, "_stats.store_events += 1")
            return False

        if op == bc.GETSTATIC:
            _cls_name, field = _split_static_ref(a)
            q = self._linked(pc)
            self._deopt_if(indent, f"{q} is None", pc)
            result = self.tmp()
            # Linked to the resolved class's statics.get — pure.
            emit(indent, f"{result} = {q}({field!r})")
            window.append(("temp", result))
            self.pending += 1
            return False

        if op == bc.PUTSTATIC:
            _cls_name, field = _split_static_ref(a)
            q = self._linked(pc)
            self._deopt_if(indent, f"{q} is None", pc)
            value = self._multi(self._pop(indent), indent)
            self._count(indent, 1)
            ev = self._expr(value)
            # Inlined non-Handle half of ``Runtime.store_static``: direct
            # table write plus the counter the service would bump.  Handle
            # values (pinning, liveness check) go through the service.
            emit(indent, f"if _isinstance({ev}, _Handle):")
            emit(indent + 1, f"_store_static({field!r}, {ev}, {q})")
            emit(indent, "else:")
            emit(indent + 1, f"{q}.statics[{field!r}] = {ev}")
            emit(indent + 1, "_stats.putstatic_events += 1")
            return False

        if op == bc.NEW:
            q = self._linked(pc)
            self._deopt_if(indent, f"{q} is None", pc)
            self._count(indent, 1)
            self._flush(indent)  # allocation: lowered values must be roots
            result = self.tmp()
            emit(indent, f"{result} = _allocate({q}, thread)")
            window.append(("temp", result))
            return False

        if op == bc.NEWARRAY:
            length = self._pop(indent)
            self._count(indent, 1)
            self._flush(indent)
            result = self.tmp()
            emit(indent,
                 f"{result} = _allocate(_arraycls, thread, "
                 f"length={self._expr(length)})")
            window.append(("temp", result))
            return False

        if op == bc.LDC_STR:
            self._count(indent, 1)
            self._flush(indent)
            result = self.tmp()
            emit(indent,
                 f"{result} = _new_string({self._const_expr(pc, a)}, thread)")
            window.append(("temp", result))
            return False

        if op == bc.AALOAD:
            index = self._multi(self._pop(indent), indent)
            array = self._multi(self._pop(indent), indent)
            self._count(indent, 1)
            ea = self._expr(array)
            ei = self._expr(index)
            self._raise_guard(indent, f"{ea} is None",
                              "_NPE('aaload on null array')")
            # Inlined ``Runtime.load_element``: access guard + direct
            # list read; non-arrays and bad indices fall back for the
            # exact VMError/ArrayIndexError.  A non-int index raises the
            # same TypeError from the inline bounds comparison as the
            # service's own.
            self._access_guard(indent, ea)
            t = self.tmp()
            emit(indent, f"{t} = ({ea}).elements")
            emit(indent, f"if {t} is not None and 0 <= {ei} < len({t}):")
            emit(indent + 1, f"{t} = {t}[{ei}]")
            emit(indent, "else:")
            emit(indent + 1, f"{t} = _load_element({ea}, {ei}, thread)")
            window.append(("temp", t))
            return False

        if op == bc.AASTORE:
            value = self._multi(self._pop(indent), indent)
            index = self._multi(self._pop(indent), indent)
            array = self._multi(self._pop(indent), indent)
            self._count(indent, 1)
            ea = self._expr(array)
            ei = self._expr(index)
            ev = self._expr(value)
            self._raise_guard(indent, f"{ea} is None",
                              "_NPE('aastore on null array')")
            # Inlined ``Runtime.store_element``; mirrors the PUTFIELD
            # shape with the array bounds check in place of the field
            # membership check.
            self._access_guard(indent, ea)
            t = self.tmp()
            emit(indent, f"{t} = ({ea}).elements")
            emit(indent, f"if {t} is None or not 0 <= {ei} < len({t}):")
            emit(indent + 1, f"_store_element({ea}, {ei}, {ev}, thread)")
            emit(indent, "else:")
            emit(indent + 1, f"{t}[{ei}] = {ev}")
            emit(indent + 1, f"if _isinstance({ev}, _Handle):")
            self._access_guard(indent + 2, ev)
            emit(indent + 2, f"_on_store({ea}, {ev})")
            emit(indent + 1, "else:")
            emit(indent + 2, "_stats.store_events += 1")
            return False

        if op == bc.ARRAYLENGTH:
            array = self._multi(self._pop(indent), indent)
            self._count(indent, 1)
            ea = self._expr(array)
            self._raise_guard(indent, f"{ea} is None",
                              "_NPE('arraylength on null')")
            self._access_guard(indent, ea)
            t = self.tmp()
            emit(indent, f"{t} = {ea}.length")
            window.append(("temp", t))
            return False

        if op == bc.INSTANCEOF:
            obj = self._pop(indent)
            t = self.tmp()
            emit(indent, f"{t} = _instanceof({self._expr(obj)}, "
                         f"{self._const_expr(pc, a)})")
            window.append(("temp", t))
            self.pending += 1
            return False

        if op == bc.INTERN:
            string = self._multi(self._pop(indent), indent)
            self._count(indent, 1)
            es = self._expr(string)
            self._raise_guard(indent, f"{es} is None", "_NPE('intern on null')")
            self._access_guard(indent, es)
            self._flush(indent)
            t = self.tmp()
            emit(indent, f"{t} = _intern_s({es})")
            window.append(("temp", t))
            return False

        if op == bc.INVOKESTATIC:
            q = self._linked(pc)
            self._deopt_if(indent, f"{q} is None", pc)
            self._count(indent, 1)
            self._flush(indent)  # args must be on the real stack
            self._emit_call(indent, q, nxt, None)
            return True

        if op == bc.INVOKEVIRTUAL:
            if not isinstance(a, str) or not isinstance(b, int):
                return self._deopt(indent, pc)
            if b < 1:
                self._count(indent, 1)
                self._flush(indent)
                emit(indent, "raise _VerifyError('invokevirtual needs a receiver')")
                return True
            table = self._vtable(pc)
            symbolic = len(window) >= b
            if symbolic:
                # Receiver and args still symbolic: they move straight
                # into the callee's locals (the deopt and native paths
                # spill them).
                window[-b] = self._multi(window[-b], indent)
                recv = self._expr(window[-b])
            else:
                self._flush(indent)
                recv = self.tmp()
                emit(indent, f"{recv} = stack[-{b}]")
            m = self.tmp()
            # A class the site has not seen is linked here; non-Handle
            # receivers (incl. None) and classes that fail to link deopt,
            # and the table handler raises with its timing.
            emit(indent, f"{m} = ({table}.get(({recv}).cls) or "
                         f"_link_virtual({table}, ({recv}).cls, {a!r}, {b})) "
                         f"if _isinstance({recv}, _Handle) else None")
            self._deopt_if(indent, f"{m} is None", pc)
            self._count(indent, 1)
            args = None
            if symbolic:
                args = window[-b:]
                for entry in window[:-b]:
                    emit(indent, f"stack.append({self._expr(entry)})")
                del window[:]
            self._access_guard(indent, recv)
            self._emit_call(indent, m, nxt, args)
            return True

        if op == bc.RETURN:
            self._count(indent, 1)
            self._flush(indent)  # dying frame's stack must match the handler's
            self._emit_return(indent, None, -1)
            return True

        if op == bc.RETVAL:
            value = self._multi(self._pop(indent), indent)
            self._count(indent, 1)
            self._flush(indent)
            ev = self._expr(value)
            emit(indent, f"if _isinstance({ev}, _Handle):")
            emit(indent + 1, f"_return_ref({ev}, thread)")
            self._emit_return(indent, ev, -1)
            return True

        if op == bc.SPAWN:
            # Always via the table handler: thread creation is rare and its
            # scheduler/fault interactions stay in exactly one place.
            return self._deopt(indent, pc)

        if op == bc.GOTO:
            if not self._branch_target_ok(a):
                return self._deopt(indent, pc)
            self._count(indent, 1)
            self._flush(indent)
            emit(indent, f"pc = {a}")
            emit(indent, "continue")
            return True

        template = _IF1_OPS.get(op)
        if template is not None:
            if not self._branch_target_ok(a):
                return self._deopt(indent, pc)
            value = self._pop(indent)
            self._count(indent, 1)
            self._flush(indent)
            cond = template.format(self._expr(value))
            emit(indent, f"pc = {a} if {cond} else {nxt}")
            emit(indent, "continue")
            return True

        sym = _CMP_OPS.get(op)
        if sym is not None:
            if not self._branch_target_ok(a):
                return self._deopt(indent, pc)
            y = self._pop(indent)
            x = self._pop(indent)
            self._count(indent, 1)
            self._flush(indent)
            emit(indent,
                 f"pc = {a} if {self._expr(x)} {sym} {self._expr(y)} else {nxt}")
            emit(indent, "continue")
            return True

        # Unknown opcode: the table handler raises VerifyError with
        # first-execution timing.
        return self._deopt(indent, pc)
