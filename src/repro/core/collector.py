"""The contaminated-garbage collector (the paper's contribution).

The collector is an event consumer: the VM (or a direct-drive mutator)
reports exactly the events the thesis instruments in Sun's interpreter
(section 3.1.3) —

* object creation            -> a fresh singleton equilive block on the
                                currently active frame;
* ``putfield`` / ``aastore`` -> symmetric contamination: the two objects'
                                blocks merge, dependent on the older frame
                                (with the section 3.4 static optimization);
* ``areturn``                -> the returned object's block is promoted to
                                the caller's frame if that frame is older;
* ``putstatic``              -> the referenced object's block is pinned to
                                frame 0 (live for the program's duration);
* frame pop                  -> every block on the frame's list is dead and
                                is reclaimed (or parked for recycling);

plus the pessimistic cases of sections 3.2/3.3: interned strings, objects
escaping to native code, objects touched by a second thread, and objects
returned off the bottom of a thread's stack are pinned to frame 0.

The collector never marks: reclamation at a frame pop is a walk of that
frame's block list only.  Conservatism (objects believed live that are in
fact dead) is quantified, not corrected — except by the optional section 3.6
reset pass, driven by the tracing collector through the ``begin_reset`` /
``reset_assign`` / ``reset_union`` / ``end_reset`` protocol.
"""

from __future__ import annotations

from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

from ..jvm.errors import IllegalStateError
from ..jvm.frames import Frame, StaticFrame
from ..jvm.heap import Handle, Heap
from ..obs.events import NULL_TRACER
from ..obs.profile import NULL_PROFILER, PHASE_CG_EVENTS, PHASE_RECYCLE
from .equilive import (EquiliveBlock, EquiliveManager, find_root,
                       untracked_error)
from .policy import CGPolicy
from .recycle import RecycleList
from .stats import (
    CAUSE_INTERN,
    CAUSE_MERGED,
    CAUSE_NATIVE,
    CAUSE_PUTSTATIC,
    CAUSE_ROOTLESS,
    CAUSE_SHARED,
    CGStats,
)


#: Builds an instance without running ``__init__`` (see :meth:`on_alloc`).
_new = object.__new__


class ResetSnapshot:
    """Pre-reset dependence of every live object (for the Fig. 4.11 metric)."""

    __slots__ = ("entries",)

    def __init__(self) -> None:
        #: handle id -> (was_static, dependent frame depth)
        self.entries: Dict[int, Tuple[bool, int]] = {}


class ContaminatedCollector:
    """Event-driven CG collector over a :class:`~repro.jvm.heap.Heap`."""

    def __init__(self, heap: Heap, static_frame: StaticFrame,
                 policy: Optional[CGPolicy] = None,
                 tracer=None, profiler=None) -> None:
        self.heap = heap
        self.policy = policy or CGPolicy()
        self.static_frame = static_frame
        self.stats = CGStats()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: Cached flag so disabled tracing costs one attribute test on the
        #: (already expensive) event paths, never a method call.
        self._trace = self.tracer.enabled
        self.profiler = profiler if profiler is not None else NULL_PROFILER
        self.equilive = EquiliveManager(static_frame)
        #: The manager's live-block set (a stable dict object).
        self._live_blocks = self.equilive.live
        self._free_many = heap.free_many
        self.recycle = RecycleList(
            heap, self.stats, by_type=self.policy.recycle_by_type,
            tracer=self.tracer,
        )
        #: Optional oracle installed by the runtime for paranoid mode: given
        #: a list of handles CG is about to free, raise if any is reachable.
        self.reachability_probe: Optional[Callable[[List[Handle]], None]] = None
        if self.profiler.enabled:
            # Shadow the hot event handlers with timing wrappers only when
            # profiling is on; the disabled configuration keeps the plain
            # bound methods and pays nothing.
            self.on_store = self._timed(self.on_store, PHASE_CG_EVENTS)
            self.on_areturn = self._timed(self.on_areturn, PHASE_CG_EVENTS)
            self.on_putstatic = self._timed(self.on_putstatic, PHASE_CG_EVENTS)
            self.on_frame_pop = self._timed(self.on_frame_pop, PHASE_CG_EVENTS)
            self.take_recycled = self._timed(self.take_recycled, PHASE_RECYCLE)

    def set_tracer(self, tracer) -> None:
        """Install (or replace) the event tracer after construction.

        The collector caches ``tracer.enabled`` in ``_trace`` at
        construction time for event-path speed, so assigning
        ``collector.tracer`` directly would leave the cached flag stale
        and silently drop events.  This is the supported way to attach a
        tracer late; it refreshes the cache here and in the recycle list.
        """
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._trace = self.tracer.enabled
        self.recycle.set_tracer(self.tracer)

    def _timed(self, method, phase: str):
        profiler = self.profiler

        def wrapper(*args, **kwargs):
            started = perf_counter()
            try:
                return method(*args, **kwargs)
            finally:
                profiler.add(phase, perf_counter() - started)

        return wrapper

    # ------------------------------------------------------------------
    # Mutator events
    # ------------------------------------------------------------------

    def on_alloc(self, handle: Handle, frame: Frame) -> EquiliveBlock:
        """A new object is associated with the currently active frame."""
        self.stats.objects_created += 1
        # Inline of equilive.create() and EquiliveBlock(handle, frame),
        # every slot in its order: a fresh handle is already a root.
        block = _new(EquiliveBlock)
        block.members = [handle]
        block.frame = frame
        block.static_cause = None
        block.ever_unioned = False
        block.root = handle
        block.rank = 0
        handle.block = block
        self._live_blocks[block] = None
        frame.cg_blocks[block] = None
        if self._trace:
            self.tracer.emit(
                "new", handle=handle.id, cls=handle.cls.name,
                size=handle.size, depth=frame.depth,
                thread=handle.alloc_thread,
            )
        if frame is self.static_frame:
            # Allocated outside any method (class loading, interpreter
            # internals): immediately static, per section 3.2.
            self._pin_block(block, CAUSE_INTERN)
        return block

    def on_store(self, container: Handle, value: Optional[Handle]) -> None:
        """``putfield``/``aastore``: symmetric contamination (chapter 2)."""
        self.stats.store_events += 1
        if value is None:
            return
        if container.freed:
            container.check_live()
        if value.freed:
            value.check_live()
        # Inline of equilive.block_of() on both sides; a path longer than
        # one hop takes the compressing walk.
        self.equilive.finds += 2
        root = container.uf
        if root is None:
            bc = container.block
        elif root.uf is None:
            bc = root.block
        else:
            bc = find_root(container).block
        root = value.uf
        if root is None:
            bv = value.block
        elif root.uf is None:
            bv = root.block
        else:
            bv = find_root(value).block
        if bc is None or bv is None:
            raise untracked_error(container if bc is None else value)
        if bc is bv:
            return
        if bv.static_cause is not None:
            if bc.static_cause is None and self.policy.static_opt:
                # Section 3.4: referencing an already-static object cannot
                # make it "more live"; skip contaminating the container.
                self.stats.static_opt_hits += 1
                return
            self._merge(bc, bv)
            return
        fc = bc.frame
        fv = bv.frame
        if bc.static_cause is not None or fc.thread_id != fv.thread_id:
            self._merge(bc, bv)
            return
        # Inline of _merge and EquiliveManager.merge for the common case:
        # two collectible blocks of one thread merge onto the older frame.
        target = fc if fc.depth < fv.depth else fv
        if self._trace:
            self.tracer.emit(
                "union", a=bc.members[0].id, b=bv.members[0].id,
                sizes=[len(bc.members), len(bv.members)],
                target_depth=target.depth,
                static=target is self.static_frame,
            )
        equilive = self.equilive
        equilive.finds += 4
        equilive.unions += 1
        if bc.rank < bv.rank:
            winner, loser = bv, bc
        else:
            winner, loser = bc, bv
            if bc.rank == bv.rank:
                bc.rank += 1
        loser_root = loser.root
        loser_root.uf = winner.root
        loser_root.block = None
        loser.root = None
        members, spliced = winner.members, loser.members
        if len(members) < len(spliced):
            winner.members, loser.members = spliced, members
            members, spliced = spliced, members
        members.extend(spliced)
        winner.ever_unioned = True
        del winner.frame.cg_blocks[winner]
        del loser.frame.cg_blocks[loser]
        del self._live_blocks[loser]
        winner.frame = target
        target.cg_blocks[winner] = None
        self.stats.contaminations += 1

    def on_putstatic(self, value: Optional[Handle]) -> None:
        """A static variable now references ``value``: pin to frame 0."""
        self.stats.putstatic_events += 1
        if value is None:
            return
        value.check_live()
        self.pin_static(value, CAUSE_PUTSTATIC)

    def on_areturn(self, value: Handle, caller: Optional[Frame]) -> None:
        """``areturn``: the block must outlive the caller's frame."""
        self.stats.areturn_events += 1
        if value.freed:
            value.check_live()
        if caller is None:
            # Returned off the bottom of a thread's stack (or to a native
            # caller with no frame): nothing anchors it, pin conservatively.
            self.pin_static(value, CAUSE_ROOTLESS)
            return
        # Inline of equilive.block_of().
        self.equilive.finds += 1
        root = value.uf
        if root is None:
            block = value.block
        elif root.uf is None:
            block = root.block
        else:
            block = find_root(value).block
        if block is None:
            raise untracked_error(value)
        if block.static_cause is not None:
            return
        frame = block.frame
        if caller.thread_id != frame.thread_id:
            # Returned into another thread's stack: no common frame order,
            # so the block is shared (section 3.3), as in _merge.
            self.stats.static_pins[CAUSE_SHARED] += 1
            self._pin_block(block, CAUSE_SHARED)
            return
        if caller.depth < frame.depth:
            if self._trace:
                self.tracer.emit(
                    "promote", handle=value.id,
                    from_depth=frame.depth, to_depth=caller.depth,
                )
            # Inline of equilive.move_to_frame().
            del frame.cg_blocks[block]
            block.frame = caller
            caller.cg_blocks[block] = None

    def on_access(self, handle: Handle, thread_id: int) -> None:
        """Any heap access: detect sharing between threads (section 3.3)."""
        if handle.freed:
            handle.check_live()
        if handle.pinned_cause is not None:
            return  # already static; no further action can affect it
        if handle.alloc_thread != thread_id:
            self.pin_static(handle, CAUSE_SHARED)

    def on_intern(self, handle: Handle) -> None:
        """Interpreter-internal static reference (String.intern, section 3.2)."""
        self.pin_static(handle, CAUSE_INTERN)

    def on_native_escape(self, handle: Handle) -> None:
        """Object handed to native code (section 3.3): pin conservatively."""
        self.pin_static(handle, CAUSE_NATIVE)

    def on_frame_pop(self, frame: Frame) -> int:
        """Collect every equilive block dependent on the popped frame.

        Returns the number of objects reclaimed.  One walk over the frame's
        blocks detaches each block and gathers its dead members; the pop's
        statistics are totalled once, and all its dead objects reach the
        heap in one :meth:`~repro.jvm.heap.Heap.free_many` call, in block
        then member order.  With recycling enabled they are parked for
        reuse instead (section 3.7).
        """
        stats = self.stats
        stats.frame_pops += 1
        blocks = frame.cg_blocks
        trace = self._trace
        if not blocks:
            if trace:
                self.tracer.emit(
                    "frame_pop", frame=frame.frame_id, depth=frame.depth,
                    blocks=0, freed=0,
                )
            return 0
        # Every block on the list dies: take the whole list, and detach
        # each block (one find apiece) by unlinking it from its root.
        frame.cg_blocks = {}
        self.equilive.finds += len(blocks)
        live_blocks = self._live_blocks
        size_hist = stats.block_size_hist
        depth = frame.depth
        # A member dies before its block pops only when a tracing collector
        # frees it (lazy deletion), and every tracing collector counts such
        # frees in ``collected_by_msa``: until the first, every member of a
        # popped block is live and needs no filter.
        lazy = stats.collected_by_msa != 0
        dead: List[Handle] = []
        collected = exact_blocks = exact_objects = 0
        for block in blocks:
            del live_blocks[block]
            block.root.block = None
            block.root = None
            members = block.members
            if lazy:
                members = [h for h in members if not h.freed]
                if not members:
                    continue
            n = len(members)
            collected += 1
            size_hist[n] += 1
            if trace:
                self.tracer.emit(
                    "block_collect", frame=frame.frame_id, depth=depth,
                    size=n, exact=not block.ever_unioned,
                )
            if not block.ever_unioned:
                exact_blocks += 1
                exact_objects += n
            dead += members
        stats.blocks_collected += collected
        stats.exact_blocks += exact_blocks
        stats.exact_objects += exact_objects
        freed = len(dead)
        if freed:
            age_hist = stats.age_hist
            for handle in dead:
                age_hist[handle.birth_depth - depth] += 1
            if self.policy.paranoid and self.reachability_probe is not None:
                self.reachability_probe(dead)
            if self.policy.recycling:
                retire = self.heap.retire
                for handle in dead:
                    retire(handle, "contaminated-gc")
                self.recycle.park(dead)
            else:
                self._free_many(dead, "contaminated-gc")
        stats.objects_popped += freed
        if trace:
            self.tracer.emit(
                "frame_pop", frame=frame.frame_id, depth=depth,
                blocks=len(blocks), freed=freed,
            )
        return freed

    # ------------------------------------------------------------------
    # Allocation-time recycling hook (section 3.7)
    # ------------------------------------------------------------------

    def take_recycled(self, size: int, cls=None) -> Optional[Handle]:
        """Search the recycle list for ``size`` words of storage.

        With by-type recycling enabled (chapter 6), an exact (class, size)
        bucket is consulted first; otherwise this is the section 3.7
        linear first-fit.
        """
        if not self.policy.recycling:
            return None
        donor = self.recycle.take_fit(size, cls=cls)
        if donor is not None:
            self.stats.objects_recycled += 1
        return donor

    # ------------------------------------------------------------------
    # Emergency recovery (the allocation cascade's CG-only tier)
    # ------------------------------------------------------------------

    def emergency_pass(self) -> int:
        """Reclaim storage using only what CG already knows, no tracing.

        Two pop-driven sweeps: (1) detach equilive blocks whose members
        have all since been reclaimed out of band (MSA's lazy deletion
        leaves them on frame lists until the frame pops); (2) flush every
        parked recycle object back to the free list.  Both only touch
        provably-dead storage, so no census or collection counter moves —
        this is exactly what a frame pop/GC would eventually do, done now.
        Returns the number of parked objects released.
        """
        equilive = self.equilive
        for block in list(equilive.blocks()):
            if block.live_size() == 0:
                equilive.detach(block)
        return self.recycle.flush()

    def block_census(self) -> Dict[str, int]:
        """Instantaneous equilive-block summary for crash dumps."""
        blocks = live_objects = static_blocks = static_objects = largest = 0
        for block in self.equilive.blocks():
            size = block.live_size()
            blocks += 1
            live_objects += size
            if size > largest:
                largest = size
            if block.is_static:
                static_blocks += 1
                static_objects += size
        return {
            "blocks": blocks,
            "live_objects": live_objects,
            "static_blocks": static_blocks,
            "static_objects": static_objects,
            "largest_block": largest,
        }

    # ------------------------------------------------------------------
    # Tracing-collector integration
    # ------------------------------------------------------------------

    def on_collected_by_msa(self, handle: Handle) -> None:
        """The tracing collector reclaimed an object CG still thought live.

        The handle stays on its block's member list with its ``freed`` flag
        set (lazy deletion); the block skips it when it is eventually popped.
        """
        self.stats.collected_by_msa += 1

    def begin_reset(self) -> ResetSnapshot:
        """Start a section 3.6 reset pass: snapshot and dismantle all blocks."""
        snapshot = ResetSnapshot()
        for block in self.equilive.blocks():
            entry = (block.is_static, block.frame.depth)
            for handle in block.live_members():
                snapshot.entries[handle.id] = entry
        self.equilive.dismantle_all()
        return snapshot

    def reset_assign(self, handle: Handle, frame: Frame) -> None:
        """Associate ``handle`` with ``frame`` (first root that reaches it)."""
        if self.equilive.has_block(handle):
            raise IllegalStateError(f"reset_assign of already-assigned #{handle.id}")
        block = self.equilive.create(handle, frame)
        if frame is self.static_frame:
            block.static_cause = handle.pinned_cause or CAUSE_MERGED
            if handle.pinned_cause is None:
                handle.pinned_cause = block.static_cause
                self.stats.objects_pinned[block.static_cause] += 1

    def reset_union(self, a: Handle, b: Handle) -> None:
        """Union along a reference edge discovered during marking."""
        ba = self.equilive.block_of(a)
        bb = self.equilive.block_of(b)
        if ba is not bb:
            self._merge(ba, bb)

    def end_reset(self, snapshot: ResetSnapshot) -> int:
        """Finish a reset pass; returns the number of less-live objects.

        An object is *less live* when its rebuilt dependence is strictly
        younger than before the pass (e.g. it dropped out of the static set,
        or moved to a deeper frame) — the approximation error the reset pass
        repairs (Fig. 4.11).
        """
        self.stats.reset_passes += 1
        improved = 0
        for block in self.equilive.blocks():
            now_static = block.is_static
            depth_now = block.frame.depth
            for handle in block.live_members():
                was = snapshot.entries.get(handle.id)
                if was is None:
                    continue  # allocated after the snapshot; nothing to compare
                was_static, depth_before = was
                if was_static and not now_static:
                    improved += 1
                    handle.pinned_cause = None
                elif not was_static and not now_static and depth_now > depth_before:
                    improved += 1
        self.stats.less_live += improved
        if self._trace:
            self.tracer.emit(
                "reset_pass", improved=improved,
                blocks=self.equilive.block_count(),
            )
        return improved

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def pin_static(self, handle: Handle, cause: str) -> None:
        """Pin ``handle``'s whole block to frame 0 with the given cause."""
        block = self.equilive.block_of(handle)
        if block.static_cause is not None:
            return
        self.stats.static_pins[cause] += 1
        self._pin_block(block, cause)

    def _pin_block(self, block: EquiliveBlock, cause: str) -> None:
        if self._trace:
            self.tracer.emit(
                "pin", handle=block.members[0].id, cause=cause,
                members=len(block.members), from_depth=block.frame.depth,
            )
        self._stamp_members(block, cause)
        block.static_cause = cause
        self.equilive.pin_static(block, cause)

    def _stamp_members(self, block: EquiliveBlock, cause: str) -> None:
        stamped = self.stats.objects_pinned
        for handle in block.members:
            if not handle.freed and handle.pinned_cause is None:
                handle.pinned_cause = cause
                stamped[cause] += 1

    def _merge(self, ba: EquiliveBlock, bb: EquiliveBlock) -> EquiliveBlock:
        """Merge two distinct blocks per the paper's rules (section 2.2)."""
        if ba.static_cause is not None or bb.static_cause is not None:
            cause = ba.static_cause or bb.static_cause or CAUSE_MERGED
            if ba.static_cause is None:
                self._stamp_members(ba, cause)
                ba.static_cause = cause
            if bb.static_cause is None:
                self._stamp_members(bb, cause)
                bb.static_cause = cause
            target = self.static_frame
        elif ba.frame.thread_id != bb.frame.thread_id:
            # Blocks anchored in different threads' stacks have no common
            # frame order; treat as shared (section 3.3).
            self.stats.static_pins[CAUSE_SHARED] += 1
            self._stamp_members(ba, CAUSE_SHARED)
            self._stamp_members(bb, CAUSE_SHARED)
            ba.static_cause = CAUSE_SHARED
            bb.static_cause = CAUSE_SHARED
            target = self.static_frame
        else:
            # Inline of Frame.is_older_than: same thread, neither static.
            target = ba.frame if ba.frame.depth < bb.frame.depth else bb.frame
        if self._trace:
            self.tracer.emit(
                "union", a=ba.members[0].id, b=bb.members[0].id,
                sizes=[len(ba.members), len(bb.members)],
                target_depth=target.depth,
                static=target is self.static_frame,
            )
        merged = self.equilive.merge(ba, bb, target)
        self.stats.contaminations += 1
        return merged

    # ------------------------------------------------------------------
    # End-of-run accounting
    # ------------------------------------------------------------------

    def final_census(self) -> Dict[str, int]:
        """Classify surviving objects: the popped/static/thread breakdown
        of Tables A.2-A.4 plus the per-cause static composition of A.1."""
        static_count = 0
        shared_count = 0
        for block in self.equilive.blocks():
            for handle in block.live_members():
                if handle.pinned_cause == CAUSE_SHARED:
                    shared_count += 1
                else:
                    static_count += 1
        return {
            "popped": self.stats.objects_popped,
            "static": static_count,
            "thread": shared_count,
            "collected_by_msa": self.stats.collected_by_msa,
        }
