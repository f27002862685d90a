"""The runtime: heap + CG collector + tracing collector + threads.

:class:`Runtime` is the single integration point.  Both mutator front ends —
the bytecode :mod:`~repro.jvm.interpreter` and the direct-drive
:class:`~repro.jvm.mutator.Mutator` — funnel every heap effect through the
services here, so the CG collector, the tracing collector's write barriers,
the thread-sharing detector, and the periodic-GC trigger observe an
identical event stream regardless of how the program is expressed.

Allocation follows the thesis's order (section 3.7): try the free list;
on failure consult the CG recycle list (first-fit over dead objects);
then flush parked recycle storage and retry; then run the traditional
collector and retry; only then raise OutOfMemoryError.
"""

from __future__ import annotations

import hashlib
import json
import os
from collections import Counter
from dataclasses import asdict, dataclass, field
from typing import Dict, Iterator, List, Optional, Union

from time import perf_counter

from ..core.policy import CGPolicy
from ..faults import CrashDump, FaultPlan, did_you_mean
from ..obs.events import NULL_TRACER
from ..obs.profile import NULL_PROFILER, PHASE_MSA, PhaseProfiler
from .errors import IllegalStateError, OutOfMemoryError, VMError
from .frames import Frame, FrameIdSource, StaticFrame
from .heap import Handle, Heap
from .model import JClass, JMethod, Program
from .natives import NativeRegistry
from .strings import InternTable
from .threads import JThread, Scheduler

if False:  # pragma: no cover - typing-only (imported lazily to break a cycle)
    from ..core.collector import ContaminatedCollector

TRACING_CHOICES = ("marksweep", "none", "generational", "train")
DISPATCH_CHOICES = ("tiered", "table")


def default_dispatch() -> str:
    """The default interpreter dispatch mode.

    ``tiered`` (profile-guided: the table handlers until hot, then
    promotion to generated code) unless the ``REPRO_DISPATCH`` environment
    knob overrides it — the CI dispatch-matrix job uses the knob to run the
    whole tier-1 suite under each mode.  The value is validated against
    :data:`DISPATCH_CHOICES` by ``RuntimeConfig.__post_init__`` exactly
    like the kwarg path, so a typo'd env value fails at config load with
    a did-you-mean suggestion instead of silently misdispatching.
    """
    return os.environ.get("REPRO_DISPATCH", "tiered")


@dataclass
class RuntimeConfig:
    """Everything configurable about a run (one figure = one config sweep)."""

    heap_words: int = 1 << 20
    cg: CGPolicy = field(default_factory=CGPolicy)
    tracing: str = "marksweep"
    compaction: bool = False
    #: Run the tracing collector every N mutator operations (Fig. 4.11 uses
    #: the thesis's "every 100,000 JVM instructions" protocol).  None = only
    #: on allocation failure.
    gc_period_ops: Optional[int] = None
    #: Scheduler quantum, in instructions: how far a thread runs before
    #: the round-robin rotates while two or more threads are runnable (a
    #: lone thread runs in slices of several quanta; same schedule).
    quantum: int = 100
    #: Event sink for the observability layer (:mod:`repro.obs`).  None
    #: installs the zero-overhead NullTracer.
    tracer: Optional[object] = None
    #: Collect perf_counter phase timings (cg-events / msa /
    #: recycle-search / codegen) and per-request latency attribution.
    #: Observational: the interpreter takes the same loops either way.
    profile: bool = False
    #: Interpreter dispatch strategy: "tiered" (the default — methods
    #: start on the table's opcode handlers under an invocation +
    #: loop-backedge hotness counter, and are promoted at a call boundary
    #: once hot to generated Python source with guarded speculation that
    #: deopts back to the handlers, :mod:`repro.jvm.compiledcode`) or
    #: "table" (the opcode-indexed handler tuple — the oracle the
    #: opcode-parity suite and the perfbench reference compare against).
    #: The ``REPRO_DISPATCH`` env var overrides the default.
    dispatch: str = field(default_factory=default_dispatch)
    #: Tiered-dispatch promotion threshold: a method is promoted to
    #: generated code at its next call boundary once its hotness counter
    #: (driver visits + backedges *
    #: ``Interpreter.PROMOTE_BACKEDGE_WEIGHT``) reaches this value; 1
    #: codegens every method at its first visit.  Only consulted when
    #: ``dispatch == "tiered"``; it still enters :meth:`fingerprint`
    #: unconditionally because it is part of the run's identity
    #: (promotion timing never changes counters, but the knob is config,
    #: not observation).
    promote_after: int = 128
    #: Deterministic fault-injection plan (:mod:`repro.faults`).  None —
    #: the default for every figure and bench run — keeps each hook at a
    #: single is-not-None test, so results stay bit-identical.
    faults: Optional[FaultPlan] = None
    #: Emit a :class:`~repro.obs.heartbeat.LiveSnapshot` to the spool
    #: every N mutator operations (``python -m repro inspect`` reads it).
    #: Pure op-counter cadence — snapshots fire at the same op counts
    #: under both dispatch modes — and purely observational, so, like
    #: ``tracer``/``profile``, it is excluded from :meth:`fingerprint`.
    #: Armed or not, bytecode runs take the same dispatch loops (slices
    #: end where a beat is due).  Off by default.
    heartbeat_every: Optional[int] = None
    #: Spool directory override for heartbeats (default: ``$REPRO_SPOOL``
    #: or ``<tempdir>/repro-spool``).
    heartbeat_spool: Optional[str] = None
    #: Identity labels stamped on every snapshot (the harness stamps
    #: ``workload``/``size``/``system`` so the fleet view can name cells).
    heartbeat_labels: Optional[Dict] = None

    def __post_init__(self) -> None:
        if self.tracing not in TRACING_CHOICES:
            raise ValueError(
                f"tracing must be one of {TRACING_CHOICES}, got {self.tracing!r}"
                f"{did_you_mean(self.tracing, TRACING_CHOICES)}"
            )
        if self.heap_words <= 0:
            raise ValueError("heap_words must be positive")
        if self.dispatch not in DISPATCH_CHOICES:
            raise ValueError(
                f"dispatch must be one of {DISPATCH_CHOICES}, got {self.dispatch!r}"
                f"{did_you_mean(self.dispatch, DISPATCH_CHOICES)}"
            )
        if self.gc_period_ops is not None and self.gc_period_ops < 1:
            raise ValueError("gc_period_ops must be >= 1 (or None for off)")
        if self.heartbeat_every is not None and self.heartbeat_every < 1:
            raise ValueError("heartbeat_every must be >= 1 (or None for off)")
        if self.promote_after < 1:
            raise ValueError(
                f"promote_after must be >= 1, got {self.promote_after}"
            )

    def fingerprint(self) -> str:
        """Digest of every field that changes a run's *results*.

        ``heap_words`` is excluded because the result cache keys it
        explicitly; ``tracer`` and ``profile`` are excluded because they
        observe a run without altering its counters.
        """
        payload = {
            "cg": asdict(self.cg),
            "tracing": self.tracing,
            "compaction": self.compaction,
            "gc_period_ops": self.gc_period_ops,
            "quantum": self.quantum,
            "dispatch": self.dispatch,
            "promote_after": self.promote_after,
            "faults": self.faults.fingerprint() if self.faults is not None
                      else None,
        }
        digest = hashlib.sha1(
            json.dumps(payload, sort_keys=True).encode()
        ).hexdigest()
        return digest[:12]


class Runtime:
    """A VM instance: owns the heap, threads, collectors, and statics."""

    def __init__(self, config: Optional[RuntimeConfig] = None,
                 program: Optional[Program] = None) -> None:
        self.config = config or RuntimeConfig()
        self.program = program or Program()
        handle_words = (
            self.config.cg.handle_words if self.config.cg.enabled else 2
        )
        self.heap = Heap(self.config.heap_words, handle_words=handle_words)
        self.tracer = (
            self.config.tracer if self.config.tracer is not None else NULL_TRACER
        )
        self.profiler = PhaseProfiler() if self.config.profile else NULL_PROFILER
        self.static_frame = StaticFrame()
        self.frame_ids = FrameIdSource()
        self.scheduler = Scheduler(self.config.quantum)
        self.intern_table = InternTable()
        self.natives = NativeRegistry()
        #: Direct-mode statics (the bytecode mode uses class statics).
        self.globals: Dict[str, object] = {}

        # Imported here, not at module scope: collector -> jvm -> runtime
        # would otherwise be a circular import.
        from ..core.collector import ContaminatedCollector

        self.collector: Optional["ContaminatedCollector"] = None
        if self.config.cg.enabled:
            self.collector = ContaminatedCollector(
                self.heap, self.static_frame, self.config.cg,
                tracer=self.tracer, profiler=self.profiler,
            )
            if self.config.cg.paranoid:
                self.collector.reachability_probe = self._assert_unreachable

        self.tracing = self._make_tracing(self.config.tracing)

        #: Fault-injection and recovery accounting: ``injected.<site>``,
        #: ``recovered.<tier>``, ``oom.dumps``.  Always present (cheap),
        #: folded into the ``fault.`` metrics namespace only when nonzero.
        self.fault_stats: Counter = Counter()
        plan = self.config.faults
        if plan is not None:
            # Arming is per-runtime: every run replays the same schedule.
            plan.rearm()
            if plan.arms("heap.alloc"):
                self.heap.set_alloc_fault(self._alloc_fault_probe)

        # Hot-path caches: these getattr/config reads used to happen once
        # per allocation/store; resolve them once here instead.  CPython
        # specialises ``self.<name>`` reads only while the first instance
        # of a class has at most 29 attributes (its shared-key limit); a
        # 30th gives every runtime a plain dict and cost Mutator-driven
        # jess 5-13% of its ops/sec, so keep the count within it
        # (tests/jvm/test_runtime.py counts them).
        self._note_allocation = getattr(self.tracing, "note_allocation", None)
        self._write_barrier_fn = getattr(self.tracing, "write_barrier", None)
        self._heap_allocate = self.heap.allocate
        self._classes = self.program.classes
        self._on_alloc = (self.collector.on_alloc
                          if self.collector is not None else None)

        #: Live-inspection heartbeat (:mod:`repro.obs.heartbeat`).  Armed
        #: via ``heartbeat_every``; cadence is pure op-counter arithmetic
        #: evaluated in the tick path, so *when* a snapshot fires is
        #: deterministic even though its wall-clock fields are advisory.
        self.heartbeat = None
        self._hb_next = 0
        every = self.config.heartbeat_every
        if every is not None:
            from ..obs.heartbeat import Heartbeat

            self.heartbeat = Heartbeat(
                every, spool=self.config.heartbeat_spool,
                labels=self.config.heartbeat_labels,
            )
            self._hb_next = every

        self.ops = 0
        self._last_periodic_gc = 0
        #: The op count at which the next periodic GC or beat fires (see
        #: :meth:`tick`); None when neither is armed.
        self._due = self._deadline()
        if self._due is None:
            # Nothing can fall due: tick degenerates to a counter bump.
            # Bind it as an instance attribute so front ends that cache
            # ``runtime.tick`` pick it up too.
            self.tick = self._tick_count_only
        self._next_thread_id = 0
        self.main_thread = self.new_thread("main")
        self._interpreter = None  # created lazily to avoid an import cycle

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    def _make_tracing(self, kind: str):
        if kind == "none":
            from ..gc.nullgc import NullCollector

            return NullCollector(self)
        if kind == "marksweep":
            from ..gc.marksweep import MarkSweepCollector

            return MarkSweepCollector(self, compaction=self.config.compaction)
        if kind == "generational":
            from ..gc.generational import GenerationalCollector

            return GenerationalCollector(self)
        if kind == "train":
            from ..gc.train import TrainCollector

            return TrainCollector(self)
        raise ValueError(f"unknown tracing collector {kind!r}")

    @property
    def interpreter(self):
        if self._interpreter is None:
            from .interpreter import Interpreter

            self._interpreter = Interpreter(self)
        return self._interpreter

    def new_thread(self, name: Optional[str] = None) -> JThread:
        thread = JThread(
            self._next_thread_id, name or f"thread-{self._next_thread_id}",
            self.frame_ids,
        )
        self._next_thread_id += 1
        self.scheduler.register(thread)
        return thread

    def threads(self) -> List[JThread]:
        return self.scheduler.threads

    # ------------------------------------------------------------------
    # Frames
    # ------------------------------------------------------------------

    def push_frame(self, thread: JThread, method: Optional[JMethod] = None,
                   nlocals: int = 0) -> Frame:
        thread.started = True
        return thread.stack.push(method, nlocals)

    def pop_frame(self, thread: JThread) -> Frame:
        """Pop the active frame; the CG collector reclaims its blocks.

        A frame with no blocks, popped while the collector does not trace,
        takes ``on_frame_pop``'s no-action path inline: only the pop is
        counted.  Generated code inlines the same test.
        """
        frame = thread.stack.pop()
        collector = self.collector
        if collector is not None:
            if frame.cg_blocks or collector._trace:
                collector.on_frame_pop(frame)
            else:
                collector.stats.frame_pops += 1
        return frame

    def current_frame(self, thread: JThread) -> Frame:
        return thread.stack.current

    # ------------------------------------------------------------------
    # Allocation
    # ------------------------------------------------------------------

    def allocate(self, cls: Union[str, JClass], thread: JThread,
                 length: Optional[int] = None) -> Handle:
        """Allocate an instance; runs recycling/GC per the thesis's order."""
        if type(cls) is str:
            cls = self._classes.get(cls) or self.program.lookup(cls)
        if cls.is_array and length is None:
            raise VMError("array allocation requires a length")
        frames = thread.stack.frames
        frame = frames[-1] if frames else self.static_frame
        birth_frame_id = frame.frame_id
        birth_depth = frame.depth
        handle = self._heap_allocate(
            cls, thread.thread_id, birth_frame_id, birth_depth, length
        )
        if handle is None:
            handle = self._allocate_slow(
                cls, thread, birth_frame_id, birth_depth, length
            )
        on_alloc = self._on_alloc
        if on_alloc is not None:
            on_alloc(handle, frame)
        note = self._note_allocation
        if note is not None:
            note(handle)
        return handle

    def _alloc_fault_probe(self, size: int) -> bool:
        """Heap-installed hook: synthesize exhaustion per the fault plan."""
        plan = self.config.faults
        if plan is None or not plan.should_fire("heap.alloc"):
            return False
        self.fault_stats["injected.heap.alloc"] += 1
        tracer = self.tracer
        if tracer.enabled:
            tracer.emit("fault_inject", site="heap.alloc", fault="oom",
                        firing=plan.fired("heap.alloc"), ops=self.ops,
                        size=size)
        return True

    def _allocate_slow(self, cls: JClass, thread: JThread, birth_frame_id: int,
                       birth_depth: int, length: Optional[int]) -> Handle:
        """Allocation-failure recovery cascade: recycle search, CG emergency
        pass, mark-sweep backstop, then a structured OutOfMemoryError.

        The tier order (and every call made along it) matches the thesis's
        section 3.7 protocol exactly, so an un-faulted run's counters are
        bit-identical to the pre-cascade implementation; the additions are
        accounting (``fault_stats``), ``degrade``/``oom_recover`` trace
        events, and the crash dump attached to the terminal OOM.
        """
        tracer = self.tracer
        trace = tracer.enabled
        size = self.heap.size_of(cls, length)
        handle = None
        tier = None
        if self.collector is not None:
            # Tier 1 (section 3.7): adopt a recyclable dead object's storage.
            if trace:
                tracer.emit("degrade", tier="recycle", size=size, ops=self.ops)
            donor = self.collector.take_recycled(size, cls=cls)
            if donor is not None:
                handle = self.heap.adopt_storage(
                    donor, cls, thread.thread_id, birth_frame_id, birth_depth,
                    length=length,
                )
                tier = "recycle"
            elif self.collector.policy.recycling and len(self.collector.recycle):
                # Tier 2: CG emergency pass — prune fully-dead equilive
                # blocks and return all parked recycle storage to the free
                # list, then retry without tracing a single pointer.
                if trace:
                    tracer.emit("degrade", tier="emergency", size=size,
                                ops=self.ops)
                self.collector.emergency_pass()
                handle = self.heap.allocate(
                    cls, thread.thread_id, birth_frame_id, birth_depth,
                    length=length,
                )
                tier = "emergency"
        if handle is None:
            # Tier 3: the traditional tracing collector (the backstop CG is
            # designed to "operate in concert with", thesis chapter 1).
            if trace:
                tracer.emit("degrade", tier="backstop", size=size, ops=self.ops)
            self.run_gc()
            handle = self.heap.allocate(
                cls, thread.thread_id, birth_frame_id, birth_depth, length=length
            )
            tier = "backstop"
        if handle is None:
            self.fault_stats["oom.dumps"] += 1
            message = (
                f"cannot allocate {size} words of "
                f"{cls.name} (heap {self.heap.capacity} words, "
                f"{self.heap.free_list.free_words} free but fragmented)"
            )
            dump = CrashDump.capture(
                self, reason=message, site="heap.alloc",
                request={"cls": cls.name, "words": size,
                         "thread": thread.name},
            )
            raise OutOfMemoryError(message, dump=dump.to_dict())
        self.fault_stats[f"recovered.{tier}"] += 1
        if trace:
            tracer.emit("oom_recover", tier=tier, size=size, ops=self.ops)
        return handle

    def new_string(self, contents: str, thread: Optional[JThread] = None) -> Handle:
        handle = self.allocate(
            self.program.lookup(Program.STRING), thread or self.main_thread
        )
        handle.pyvalue = contents
        handle.fields["value"] = None  # contents live in pyvalue
        return handle

    def intern(self, handle: Handle) -> Handle:
        return self.intern_table.intern(handle, self)

    # ------------------------------------------------------------------
    # Heap mutation services (shared by interpreter and direct mutators)
    # ------------------------------------------------------------------

    def access(self, handle: Handle, thread: JThread) -> None:
        """Pre-access check: liveness oracle + thread-sharing detection."""
        if self.collector is not None:
            self.collector.on_access(handle, thread.thread_id)
        else:
            handle.check_live()

    def store_field(self, container: Handle, name: str, value: object,
                    thread: JThread) -> None:
        # The ``on_access`` calls are guarded by its no-action fast path
        # (live and already pinned or same-thread), as generated code does.
        collector = self.collector
        tid = thread.thread_id
        if collector is not None:
            if container.freed or (container.pinned_cause is None
                                   and container.alloc_thread != tid):
                collector.on_access(container, tid)
        else:
            container.check_live()
        fields = container.fields
        if fields is None or name not in fields:
            raise VMError(f"no field {name!r} on {container.cls.name}")
        fields[name] = value
        if isinstance(value, Handle):
            if collector is not None:
                if value.freed or (value.pinned_cause is None
                                   and value.alloc_thread != tid):
                    collector.on_access(value, tid)
                collector.on_store(container, value)
            else:
                value.check_live()
            barrier = self._write_barrier_fn
            if barrier is not None:
                barrier(container, value)
        elif collector is not None:
            collector.stats.store_events += 1

    def load_field(self, container: Handle, name: str, thread: JThread) -> object:
        self.access(container, thread)
        if container.fields is None or name not in container.fields:
            raise VMError(f"no field {name!r} on {container.cls.name}")
        return container.fields[name]

    def store_element(self, array: Handle, index: int, value: object,
                      thread: JThread) -> None:
        """``aastore``: arrays contaminate like any other object (section 3.1.1)."""
        collector = self.collector
        tid = thread.thread_id
        if collector is not None:
            if array.freed or (array.pinned_cause is None
                               and array.alloc_thread != tid):
                collector.on_access(array, tid)
        else:
            array.check_live()
        elements = array.elements
        if elements is None:
            raise VMError(f"aastore into non-array {array.cls.name}")
        if not 0 <= index < len(elements):
            from .errors import ArrayIndexError

            raise ArrayIndexError(f"index {index} out of [0, {len(elements)})")
        elements[index] = value
        if isinstance(value, Handle):
            if collector is not None:
                if value.freed or (value.pinned_cause is None
                                   and value.alloc_thread != tid):
                    collector.on_access(value, tid)
                collector.on_store(array, value)
            else:
                value.check_live()
            barrier = self._write_barrier_fn
            if barrier is not None:
                barrier(array, value)
        elif collector is not None:
            collector.stats.store_events += 1

    def load_element(self, array: Handle, index: int, thread: JThread) -> object:
        self.access(array, thread)
        elements = array.elements
        if elements is None:
            raise VMError(f"aaload from non-array {array.cls.name}")
        if not 0 <= index < len(elements):
            from .errors import ArrayIndexError

            raise ArrayIndexError(f"index {index} out of [0, {len(elements)})")
        return elements[index]

    def store_static(self, key: str, value: object,
                     cls: Optional[JClass] = None) -> None:
        """``putstatic``: pin referenced objects to frame 0."""
        table = cls.statics if cls is not None else self.globals
        table[key] = value
        if self.collector is not None:
            if isinstance(value, Handle):
                self.collector.on_putstatic(value)
            else:
                self.collector.stats.putstatic_events += 1

    def load_static(self, key: str, cls: Optional[JClass] = None) -> object:
        table = cls.statics if cls is not None else self.globals
        return table.get(key)

    def return_reference(self, value: Handle, thread: JThread) -> None:
        """``areturn``: promote the block to the caller's frame."""
        if self.collector is not None:
            # Inline of thread.stack.caller.
            frames = thread.stack.frames
            caller = frames[-2] if len(frames) >= 2 else None
            self.collector.on_areturn(value, caller)

    # ------------------------------------------------------------------
    # Periodic GC trigger (Fig. 4.11 protocol)
    # ------------------------------------------------------------------

    def tick(self, n: int = 1) -> None:
        """Charge ``n`` mutator operations; fire the periodic GC and the
        heartbeat once ``ops`` reaches the deadline :meth:`next_due`.

        Bound only while one of them is armed; an unarmed runtime binds
        :meth:`_tick_count_only` over it.  The GC fires first, so a beat at
        a shared op count observes the post-collection heap, and a bulk
        tick across several thresholds fires each event once.

        Front ends call this at instruction/operation boundaries only —
        i.e. while every live reference is still rooted (operand stacks,
        locals, temp roots) — so a collection triggered here is safe.
        """
        ops = self.ops + n
        self.ops = ops
        if ops < self._due:
            return
        period = self.config.gc_period_ops
        if period is not None and ops - self._last_periodic_gc >= period:
            self._last_periodic_gc = ops
            self.run_gc()
        heartbeat = self.heartbeat
        if heartbeat is not None and ops >= self._hb_next:
            # Move the schedule on before the beat, so a snapshot never
            # reenters it.
            every = heartbeat.every
            self._hb_next += every * ((ops - self._hb_next) // every + 1)
            heartbeat.beat(self)
        self._due = self._deadline()

    def _tick_count_only(self, n: int = 1) -> None:
        """:meth:`tick` for runs with neither a periodic GC nor a heartbeat."""
        self.ops += n

    def _deadline(self) -> Optional[int]:
        """The earlier of the next periodic GC and the next beat."""
        due = None
        period = self.config.gc_period_ops
        if period is not None:
            due = self._last_periodic_gc + period
        if self.heartbeat is not None and (due is None or self._hb_next < due):
            due = self._hb_next
        return due

    def next_due(self) -> Optional[int]:
        """The op count at which the next periodic GC or heartbeat fires
        (None when neither is armed).  Always above ``ops``: every tick
        that reaches it fires and moves it on."""
        return self._due

    def fire_due(self) -> None:
        """Fire what the next tick triggers, without charging that tick.

        For front ends that tick in bulk: called with ``ops`` one short of
        :meth:`next_due`, just before the instruction that ticks it runs,
        so the events see ``ops`` at the due op in the unadorned tick's
        order, and the instruction's own tick is left to the loop that
        runs it.
        """
        self.tick(1)
        self.ops -= 1

    def run_gc(self) -> int:
        """Run the tracing collector with observability around it.

        All collection entry points (allocation failure and the periodic
        trigger) funnel through here so ``gc_start``/``gc_end`` events and
        the ``msa`` phase timer see every cycle.
        """
        tracer = self.tracer
        if tracer.enabled:
            tracer.emit(
                "gc_start",
                collector=getattr(self.tracing, "name", self.config.tracing),
                cycle=self.tracing.work.cycles + 1,
                ops=self.ops, live=self.heap.live_count(),
            )
        if self.profiler.enabled:
            started = perf_counter()
            reclaimed = self.tracing.collect()
            self.profiler.add(PHASE_MSA, perf_counter() - started)
        else:
            reclaimed = self.tracing.collect()
        if tracer.enabled:
            tracer.emit(
                "gc_end", reclaimed=reclaimed, live=self.heap.live_count(),
            )
        return reclaimed

    # ------------------------------------------------------------------
    # Roots
    # ------------------------------------------------------------------

    def iter_static_roots(self) -> Iterator[Handle]:
        for value in self.globals.values():
            if isinstance(value, Handle) and not value.freed:
                yield value
        for cls in self.program.classes.values():
            for value in cls.statics.values():
                if isinstance(value, Handle) and not value.freed:
                    yield value
        yield from self.intern_table.roots()
        yield from self.natives.roots()

    def iter_roots(self) -> Iterator[Handle]:
        yield from self.iter_static_roots()
        for thread in self.scheduler.threads:
            for frame in thread.stack:
                yield from frame.root_references()

    def all_frames(self) -> List[Frame]:
        frames: List[Frame] = [self.static_frame]
        for thread in self.scheduler.threads:
            frames.extend(thread.stack.frames)
        return frames

    # ------------------------------------------------------------------
    # Execution entry points (bytecode mode)
    # ------------------------------------------------------------------

    def run(self, qualified: str, args: Optional[List[object]] = None) -> object:
        """Run ``Class.method`` on the main thread to completion.

        Spawned threads are interleaved round-robin; the call returns the
        main method's result once every thread has finished.
        """
        return self.interpreter.run_program(qualified, args or [])

    def invoke(self, qualified: str, args: List[object],
               thread: Optional[JThread] = None) -> object:
        """Synchronously invoke a method on ``thread`` (native callbacks)."""
        return self.interpreter.call_sync(
            thread or self.main_thread, qualified, args
        )

    # ------------------------------------------------------------------
    # Verification helpers
    # ------------------------------------------------------------------

    def _assert_unreachable(self, doomed: List[Handle]) -> None:
        """Paranoid-mode oracle: objects CG frees must be unreachable."""
        doomed_ids = {h.id for h in doomed}
        seen = set()
        stack = [h for h in self.iter_roots()]
        while stack:
            handle = stack.pop()
            if handle.id in seen or handle.freed:
                continue
            seen.add(handle.id)
            if handle.id in doomed_ids:
                raise IllegalStateError(
                    f"CG is about to free reachable object {handle!r}"
                )
            stack.extend(handle.references())

    def check_heap_accounting(self) -> None:
        recycled = 0
        if self.collector is not None:
            recycled = self.collector.recycle.parked_words
        self.heap.check_accounting(recycled)

    def check_cg_invariants(self) -> None:
        if self.collector is not None:
            self.collector.equilive.check_invariants(self.all_frames())
