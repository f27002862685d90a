"""Mark-sweep collector ("MSA" in the thesis) with the section 3.6 reset pass.

This is the base JDK 1.1.8 collector the paper compares against: mark every
object reachable from the roots of computation, sweep the rest, optionally
compact.  Two CG integrations live here:

* **Notification** — every object the sweep reclaims while CG still thought
  it live is reported via ``on_collected_by_msa`` (lazy removal from its
  equilive block; Fig. 4.11's "collected by MSA" column).

* **Resetting** (section 3.6) — when the CG policy enables it, the mark
  phase is replaced by a frame-ordered traversal that *rebuilds* the
  equilive partition from true reachability: all blocks are dismantled,
  statics are processed first (frame 0), then each thread's frames oldest to
  youngest; the first root that reaches an object determines its new
  dependent frame, and every reference edge re-unions the endpoint blocks.
  Because statics and older frames are processed first, each object lands on
  the oldest frame that actually reaches it — undoing the "contamination
  cannot be undone" approximation for the price of one traversal the
  traditional collector was doing anyway.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List

from ..jvm.heap import Handle
from .base import GCWork, mark_from

if TYPE_CHECKING:  # pragma: no cover
    from ..jvm.runtime import Runtime


class MarkSweepCollector:
    """Precise mark-sweep over the runtime's roots."""

    name = "marksweep"

    def __init__(self, runtime: "Runtime", compaction: bool = False) -> None:
        self.runtime = runtime
        self.compaction = compaction
        self.work = GCWork()

    # ------------------------------------------------------------------

    def collect(self) -> int:
        """One full cycle: (reset-)mark, sweep, optionally compact."""
        runtime = self.runtime
        self.work.cycles += 1
        cg = runtime.collector
        if cg is not None and cg.policy.recycling:
            # Parked recycle storage must rejoin the free list so sweep and
            # compaction see a consistent heap.
            cg.recycle.flush()
        if cg is not None and cg.policy.resetting:
            self._mark_with_reset()
        else:
            mark_from(runtime.iter_roots(), self.work)
        reclaimed = self._sweep()
        if self.compaction:
            self.work.compactions += 1
            self.work.objects_moved += runtime.heap.compact()
        runtime.heap.free_list.reset_scan()
        return reclaimed

    # ------------------------------------------------------------------

    def backstop_census(self) -> Dict[str, int]:
        """Measure what CG is retaining, without collecting anything.

        Marks from the roots into a *local* ``GCWork`` (so the run's real
        counters don't drift), counts live-but-unreachable objects — the
        conservatism the Karkare et al. line of work quantifies — then
        clears every mark.  Used by crash dumps only.
        """
        work = GCWork()
        marked = mark_from(self.runtime.iter_roots(), work)
        live = unreachable_objects = unreachable_words = 0
        for handle in self.runtime.heap.live_handles():
            if handle.freed:
                continue
            live += 1
            if not handle.mark:
                unreachable_objects += 1
                unreachable_words += handle.size
        for handle in marked:
            handle.mark = False
        return {
            "live_objects": live,
            "unreachable_objects": unreachable_objects,
            "unreachable_words": unreachable_words,
            "mark_visits": work.mark_visits,
        }

    def _sweep(self) -> int:
        runtime = self.runtime
        cg = runtime.collector
        work = self.work
        dead: List[Handle] = []
        # live_handles() is a snapshot, so freeing after the walk frees the
        # same objects in the same order as freeing inside it.
        for handle in runtime.heap.live_handles():
            work.sweep_visits += 1
            if handle.mark:
                handle.mark = False
                continue
            if cg is not None:
                cg.on_collected_by_msa(handle)
            work.objects_collected += 1
            work.words_collected += handle.size
            dead.append(handle)
        runtime.heap.free_many(dead, "mark-sweep")
        return len(dead)

    # ------------------------------------------------------------------
    # Section 3.6: rebuild CG structures during marking
    # ------------------------------------------------------------------

    def _mark_with_reset(self) -> None:
        runtime = self.runtime
        cg = runtime.collector
        assert cg is not None
        snapshot = cg.begin_reset()
        # Statics, interned strings, and native pins anchor frame 0 and are
        # processed first so static reachability dominates.
        static_frame = runtime.static_frame
        for root in runtime.iter_static_roots():
            self._assign_and_traverse(root, static_frame)
        # Then every thread's frames, oldest first: the first (oldest) frame
        # that reaches an object becomes its rebuilt dependent frame.
        for thread in runtime.threads():
            for frame in thread.stack:
                for root in frame.root_references():
                    self._assign_and_traverse(root, frame)
        cg.end_reset(snapshot)

    def _assign_and_traverse(self, root: Handle, frame) -> None:
        cg = self.runtime.collector
        assert cg is not None
        if root.freed:
            return
        stack: List[Handle] = []
        if not root.mark:
            root.mark = True
            self.work.mark_visits += 1
            if not cg.equilive.has_block(root):
                cg.reset_assign(root, frame)
            stack.append(root)
        elif cg.equilive.has_block(root):
            # Already traversed from an earlier root.  If that root belonged
            # to a different thread's stack, the object is shared between
            # threads and must be pinned (section 3.3); otherwise the older
            # assignment dominates and there is nothing new to learn.
            block = cg.equilive.block_of(root)
            if (
                not block.is_static
                and not frame.is_static_frame
                and block.frame.thread_id != frame.thread_id
            ):
                from ..core.stats import CAUSE_SHARED

                cg.pin_static(root, CAUSE_SHARED)
            return
        while stack:
            handle = stack.pop()
            for ref in handle.references():
                if ref.freed:
                    continue
                if not ref.mark:
                    ref.mark = True
                    self.work.mark_visits += 1
                    if not cg.equilive.has_block(ref):
                        cg.reset_assign(ref, frame)
                    stack.append(ref)
                # Re-union along every edge: this is what rebuilds the
                # (symmetric) contamination relation from live references.
                cg.reset_union(handle, ref)
