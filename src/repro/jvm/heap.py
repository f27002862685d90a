"""Handle-indirected heap with a JDK-1.1.8-style free-list allocator.

Sun's JDK 1.1.8 interpreter manages objects through *handles*: a small
fixed-size record holding the pointer to the object's current storage plus a
method-table reference, so relocation only updates the handle (thesis section
3.1).  We mirror that split:

* :class:`Handle` — the per-object record.  Its Python attributes stand in
  for the extra words the CG implementation added to the 2-word JDK handle
  (union-find parent, equilive block link, owning thread, unique id, birth
  depth — thesis section 3.1.1).  The configured
  *accounted* handle width (2, 8, or 16 words, section 3.5) is charged
  against a separate handle region sized as a multiple of the base split.

* :class:`FreeList` — the object-space allocator.  JDK 1.1.8 "does a linear
  search through the object pool to find the first object that is at least as
  big as requested", remembering where it last allocated (section 3.7) — a
  classic next-fit.  We reproduce that, including address-ordered coalescing,
  because the recycling experiment (Fig. 4.12/4.13) measures precisely the
  cost of that search once the heap fills.

Field *values* live in Python dictionaries on the handle; the simulated
word-addressed space governs only placement, exhaustion, and search cost,
which is all the paper's timing results depend on.  (Documented in DESIGN.md
section 7.)
"""

from __future__ import annotations

from bisect import bisect_right, insort
from typing import Dict, Iterator, List, Optional, Tuple

from .errors import OutOfMemoryError, UseAfterCollect, VMError
from .model import JClass

#: Payload words charged per array element.
WORDS_PER_ELEMENT = 1
#: Words of object header charged per allocation (class pointer + lock word).
OBJECT_HEADER_WORDS = 2

#: Handle widths, in words (thesis sections 3.1.1 and 3.5).
HANDLE_WORDS_JDK = 2
HANDLE_WORDS_CG_SQUEEZED = 8
HANDLE_WORDS_CG_WIDE = 16


#: Builds an instance without running ``__init__``: the hot allocation
#: paths fill every slot inline and skip the class call's Python frame.
_new = object.__new__


class Handle:
    """Per-object record: storage location, class, fields, and CG bookkeeping.

    ``fields`` maps field name to value for ordinary objects; ``elements`` is
    the backing list for arrays.  References are stored as :class:`Handle`
    instances and null as ``None``, so collectors can discover the reference
    graph with a single isinstance check.
    """

    __slots__ = (
        "id",
        "cls",
        "addr",
        "size",
        "fields",
        "elements",
        "freed",
        "freed_by",
        "alloc_thread",
        "birth_frame_id",
        "birth_depth",
        "pinned_cause",
        "mark",
        "pyvalue",
        "uf",
        "block",
    )

    def __init__(
        self,
        handle_id: int,
        cls: JClass,
        addr: int,
        size: int,
        alloc_thread: int,
        birth_frame_id: int,
        birth_depth: int,
        length: Optional[int] = None,
    ) -> None:
        self.id = handle_id
        self.cls = cls
        self.addr = addr
        self.size = size
        if cls.is_array:
            self.fields: Optional[Dict[str, object]] = None
            self.elements: Optional[List[object]] = [None] * (length or 0)
        else:
            # Inline of cls.field_template() for the warm-cache case.
            template = cls._field_template
            if template is None or len(template) != len(cls.fields):
                template = cls.field_template()
            self.fields = template.copy()
            self.elements = None
        self.freed = False
        self.freed_by: Optional[str] = None
        self.alloc_thread = alloc_thread
        self.birth_frame_id = birth_frame_id
        self.birth_depth = birth_depth
        self.pinned_cause = None  # static-pin cause stamp (see core.stats)
        self.mark = False
        # Interpreter-internal payload (used by java/lang/String).
        self.pyvalue: object = None
        #: CG union-find parent (thesis section 3.1.1): None on a root and
        #: on an untracked handle; see :mod:`repro.core.equilive`.
        self.uf: Optional["Handle"] = None
        #: The equilive block, set on union-find roots only.
        self.block = None

    @property
    def is_array(self) -> bool:
        return self.elements is not None

    @property
    def length(self) -> int:
        if self.elements is None:
            raise VMError(f"arraylength on non-array {self!r}")
        return len(self.elements)

    def references(self) -> Iterator["Handle"]:
        """Iterate over the non-null references this object holds."""
        if self.elements is not None:
            for value in self.elements:
                if isinstance(value, Handle):
                    yield value
        elif self.fields:
            for value in self.fields.values():
                if isinstance(value, Handle):
                    yield value

    def check_live(self) -> None:
        """Soundness oracle: fail loudly on access to a collected object."""
        if self.freed:
            raise UseAfterCollect(
                f"object #{self.id} ({self.cls.name}) was collected by "
                f"{self.freed_by or 'the collector'} but is being accessed"
            )

    def __repr__(self) -> str:
        dead = " DEAD" if self.freed else ""
        return f"<Handle #{self.id} {self.cls.name} @{self.addr}+{self.size}{dead}>"


class FreeList:
    """Address-ordered free list with next-fit search and coalescing.

    ``search_steps`` counts every block examined during allocation — the
    quantity the JDK allocator pays once the heap has filled, and the one the
    recycling optimization (section 3.7) avoids.
    """

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError("heap capacity must be positive")
        self.capacity = capacity
        # Parallel sorted lists: block start addresses and sizes.
        self._addrs: List[int] = [0]
        self._sizes: List[int] = [capacity]
        self._next_fit = 0  # index hint into the free list
        self.search_steps = 0
        self.allocs = 0
        self.frees = 0

    @property
    def free_words(self) -> int:
        return sum(self._sizes)

    @property
    def largest_block(self) -> int:
        return max(self._sizes) if self._sizes else 0

    def blocks(self) -> List[Tuple[int, int]]:
        """Snapshot of (addr, size) free blocks, address-ordered."""
        return list(zip(self._addrs, self._sizes))

    def allocate(self, size: int) -> Optional[int]:
        """Next-fit: scan from the last allocation point, wrapping once.

        The probe order (and therefore ``search_steps``) is identical to the
        classic ``(start + probe) % n`` walk; the two explicit ranges just
        avoid a modulo per probe on the hot path.
        """
        if size <= 0:
            raise ValueError("allocation size must be positive")
        addrs = self._addrs
        sizes = self._sizes
        n = len(addrs)
        if n == 0:
            return None
        start = self._next_fit
        if start > n - 1:
            start = n - 1
        # First probe: the block the last allocation split almost always
        # still fits, so take that hit without building the scan ranges.
        bsize = sizes[start]
        if bsize >= size:
            self.search_steps += 1
            addr = addrs[start]
            if bsize == size:
                del addrs[start]
                del sizes[start]
            else:
                addrs[start] = addr + size
                sizes[start] = bsize - size
            self._next_fit = start
            self.allocs += 1
            return addr
        steps = 1
        for indices in (range(start + 1, n), range(0, start)):
            for i in indices:
                steps += 1
                if sizes[i] >= size:
                    self.search_steps += steps
                    addr = addrs[i]
                    if sizes[i] == size:
                        del addrs[i]
                        del sizes[i]
                    else:
                        addrs[i] = addr + size
                        sizes[i] -= size
                    self._next_fit = i
                    self.allocs += 1
                    return addr
        self.search_steps += steps
        return None

    def free(self, addr: int, size: int) -> None:
        """Return a block, coalescing with address-adjacent neighbours."""
        if size <= 0:
            raise ValueError("freed size must be positive")
        addrs = self._addrs
        sizes = self._sizes
        n = len(addrs)
        i = bisect_right(addrs, addr)
        # Guard against double-free / overlap, which would silently corrupt
        # the accounting invariants the property tests check.
        prev_end = addrs[i - 1] + sizes[i - 1] if i > 0 else -1
        if prev_end > addr:
            raise VMError(f"free overlaps preceding block at {addr}")
        if i < n and addr + size > addrs[i]:
            raise VMError(f"free overlaps following block at {addr}")
        self.frees += 1
        merged_prev = prev_end == addr
        merged_next = i < n and addr + size == addrs[i]
        if merged_prev and merged_next:
            sizes[i - 1] += size + sizes[i]
            del addrs[i]
            del sizes[i]
        elif merged_prev:
            sizes[i - 1] += size
        elif merged_next:
            addrs[i] = addr
            sizes[i] += size
        else:
            addrs.insert(i, addr)
            sizes.insert(i, size)
        if self._next_fit >= len(addrs):
            self._next_fit = 0

    def reset_scan(self) -> None:
        """Restart the next-fit scan from the heap base (post-GC behaviour)."""
        self._next_fit = 0

    def replace_free_space(self, blocks: List[Tuple[int, int]]) -> None:
        """Install a new free-space map (post-compaction)."""
        blocks = sorted(blocks)
        self._addrs = [a for a, _ in blocks]
        self._sizes = [s for _, s in blocks]
        self._next_fit = 0


class Heap:
    """The object heap: handle table + object space + accounting.

    ``handle_words`` selects the accounted handle width; the handle region is
    sized so the *object* space keeps the capacity given here, mirroring the
    thesis's rescaling of the JDK's original 20/80 split (section 3.1.1).
    """

    def __init__(self, capacity_words: int,
                 handle_words: int = HANDLE_WORDS_JDK) -> None:
        self.free_list = FreeList(capacity_words)
        # Bound-method cache; safe because the free-list object is never
        # replaced (compaction installs new maps via replace_free_space).
        self._fl_allocate = self.free_list.allocate
        #: Fault-injection probe (repro.faults): when set, consulted once
        #: per allocation and a True return synthesizes exhaustion.  None
        #: keeps the hot path at a single is-not-None test.
        self._alloc_fault = None
        self.capacity = capacity_words
        self.handle_words = handle_words
        self._handles: Dict[int, Handle] = {}
        self._next_id = 0
        self.objects_created = 0
        self.words_allocated = 0
        self.bytes_freed = 0
        self.live_words = 0
        self.peak_live_words = 0

    # ------------------------------------------------------------------
    # Allocation and reclamation
    # ------------------------------------------------------------------

    def size_of(self, cls: JClass, length: Optional[int] = None) -> int:
        if cls.is_array:
            return OBJECT_HEADER_WORDS + WORDS_PER_ELEMENT * max(0, length or 0)
        return OBJECT_HEADER_WORDS + cls.instance_size_words()

    def allocate(
        self,
        cls: JClass,
        alloc_thread: int,
        birth_frame_id: int,
        birth_depth: int,
        length: Optional[int] = None,
    ) -> Optional[Handle]:
        """Allocate an instance of ``cls``; return None on exhaustion.

        The caller (the runtime) decides what exhaustion means: consult the
        recycle list, run the tracing collector, or raise OutOfMemoryError.
        """
        # Inline of size_of(): this is the hottest call in the VM.
        nfields = len(cls.fields)
        if cls.is_array:
            size = OBJECT_HEADER_WORDS + WORDS_PER_ELEMENT * max(0, length or 0)
        else:
            size = OBJECT_HEADER_WORDS + (nfields if nfields else 1)
        fault = self._alloc_fault
        if fault is not None and fault(size):
            return None
        # Inline of FreeList.allocate's first probe (the block at the
        # next-fit hint, which the last allocation split); a miss, or an
        # empty list, takes the full scan, which repeats that probe and
        # counts its step.
        fl = self.free_list
        sizes = fl._sizes
        n = len(sizes)
        start = fl._next_fit
        if start > n - 1:
            start = n - 1
        bsize = sizes[start] if n else 0
        if bsize >= size:
            addrs = fl._addrs
            addr = addrs[start]
            if bsize == size:
                del addrs[start]
                del sizes[start]
            else:
                addrs[start] = addr + size
                sizes[start] = bsize - size
            fl.search_steps += 1
            fl._next_fit = start
            fl.allocs += 1
        else:
            addr = self._fl_allocate(size)
            if addr is None:
                return None
        hid = self._next_id
        # Inline of Handle(hid, cls, addr, size, alloc_thread,
        # birth_frame_id, birth_depth, length): every slot, in its order.
        handle = _new(Handle)
        handle.id = hid
        handle.cls = cls
        handle.addr = addr
        handle.size = size
        if cls.is_array:
            handle.fields = None
            handle.elements = [None] * (length or 0)
        else:
            template = cls._field_template
            if template is None or len(template) != nfields:
                template = cls.field_template()
            handle.fields = template.copy()
            handle.elements = None
        handle.freed = False
        handle.freed_by = None
        handle.alloc_thread = alloc_thread
        handle.birth_frame_id = birth_frame_id
        handle.birth_depth = birth_depth
        handle.pinned_cause = None
        handle.mark = False
        handle.pyvalue = None
        handle.uf = None
        handle.block = None
        self._next_id = hid + 1
        self._handles[hid] = handle
        self.objects_created += 1
        self.words_allocated += size
        live = self.live_words + size
        self.live_words = live
        if live > self.peak_live_words:
            self.peak_live_words = live
        return handle

    def free(self, handle: Handle, freed_by: str) -> None:
        """Release ``handle``'s storage and taint it (section 3.1.4)."""
        self.retire(handle, freed_by)
        self.free_list.free(handle.addr, handle.size)

    def free_many(self, handles: List[Handle], freed_by: str) -> None:
        """:meth:`free` each of ``handles``, in order, in one call.

        The loop body is :meth:`retire` and :meth:`FreeList.free` inlined:
        the same blocks coalesce in the same order, with the same checks
        and messages, and the next-fit hint resets to 0 after exactly the
        free that a :meth:`free` loop would reset it after, so the free map
        and every counter match.  It saves the per-object method calls on
        the frame-pop and sweep paths.
        """
        table = self._handles
        fl = self.free_list
        addrs = fl._addrs
        sizes = fl._sizes
        n = len(addrs)
        next_fit = fl._next_fit
        words = frees = 0
        try:
            for handle in handles:
                if handle.freed:
                    raise VMError(f"double free of {handle!r} by {freed_by}")
                handle.freed = True
                handle.freed_by = freed_by
                size = handle.size
                words += size
                del table[handle.id]
                handle.fields = None
                handle.elements = None
                # Inline of FreeList.free(handle.addr, size).
                if size <= 0:
                    raise ValueError("freed size must be positive")
                addr = handle.addr
                i = bisect_right(addrs, addr)
                prev_end = addrs[i - 1] + sizes[i - 1] if i > 0 else -1
                if prev_end > addr:
                    raise VMError(f"free overlaps preceding block at {addr}")
                end = addr + size
                if i < n and end > addrs[i]:
                    raise VMError(f"free overlaps following block at {addr}")
                frees += 1
                if prev_end == addr:
                    if i < n and end == addrs[i]:
                        sizes[i - 1] += size + sizes[i]
                        del addrs[i]
                        del sizes[i]
                        n -= 1
                    else:
                        sizes[i - 1] += size
                elif i < n and end == addrs[i]:
                    addrs[i] = addr
                    sizes[i] += size
                else:
                    addrs.insert(i, addr)
                    sizes.insert(i, size)
                    n += 1
                if next_fit >= n:
                    next_fit = 0
        finally:
            fl.frees += frees
            fl._next_fit = next_fit
            self.live_words -= words
            self.bytes_freed += words

    def retire(self, handle: Handle, freed_by: str) -> None:
        """Taint ``handle`` as dead but keep its storage parked.

        Used by the recycling optimization (section 3.7): the dead object's
        storage stays out of the free list until either an allocation adopts
        it or the recycle list is flushed via :meth:`release_recycled`.
        """
        if handle.freed:
            raise VMError(f"double free of {handle!r} by {freed_by}")
        handle.freed = True
        handle.freed_by = freed_by
        self.live_words -= handle.size
        self.bytes_freed += handle.size
        del self._handles[handle.id]
        # Drop outgoing references so freed objects don't keep graphs alive
        # on the Python side (and so accidental traversal fails fast).
        handle.fields = None
        handle.elements = None

    def adopt_storage(self, old: Handle, cls: JClass, alloc_thread: int,
                      birth_frame_id: int, birth_depth: int,
                      length: Optional[int] = None) -> Handle:
        """Reuse a recycled object's storage for a new allocation (section 3.7).

        The old object must be dead but *not* yet returned to the free list:
        recycling defers the free and hands the storage straight to the new
        object.  Only the leading ``size`` words are reused; any surplus from
        a larger donor is returned to the free list.
        """
        if not old.freed:
            raise VMError("recycled donor must already be dead")
        size = self.size_of(cls, length)
        if old.size < size:
            raise VMError("recycled donor too small")
        if old.size > size:
            self.free_list.free(old.addr + size, old.size - size)
        handle = Handle(
            self._next_id, cls, old.addr, size, alloc_thread, birth_frame_id,
            birth_depth, length=length,
        )
        self._next_id += 1
        self._handles[handle.id] = handle
        self.objects_created += 1
        self.words_allocated += size
        self.live_words += size
        if self.live_words > self.peak_live_words:
            self.peak_live_words = self.live_words
        return handle

    def release_recycled(self, handle: Handle) -> None:
        """Return a deferred-free (recycled) object's storage to the free list."""
        self.free_list.free(handle.addr, handle.size)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def live_handles(self) -> List[Handle]:
        return list(self._handles.values())

    def live_count(self) -> int:
        return len(self._handles)

    def get(self, handle_id: int) -> Handle:
        try:
            return self._handles[handle_id]
        except KeyError:
            raise UseAfterCollect(f"handle #{handle_id} is not live") from None

    def handle_region_words(self) -> int:
        """Accounted size of the handle region for the live object count."""
        return self.live_count() * self.handle_words

    def set_alloc_fault(self, probe) -> None:
        """Install (or clear) the allocation fault probe (repro.faults)."""
        self._alloc_fault = probe

    def occupancy(self) -> Dict[str, float]:
        """Instantaneous heap gauges for the metrics registry.

        ``occupancy`` is the live fraction of object space; ``fragmentation``
        is 1 - (largest free block / free words) — 0 when the free space is
        one contiguous block, approaching 1 as it shatters.
        """
        free_words = self.free_list.free_words
        largest = self.free_list.largest_block
        return {
            "capacity_words": float(self.capacity),
            "live_words": float(self.live_words),
            "peak_live_words": float(self.peak_live_words),
            "free_words": float(free_words),
            "largest_free_block": float(largest),
            "live_objects": float(self.live_count()),
            "handle_region_words": float(self.handle_region_words()),
            "occupancy": self.live_words / self.capacity if self.capacity else 0.0,
            "fragmentation": 1.0 - largest / free_words if free_words else 0.0,
        }

    def compact(self) -> int:
        """Slide all live objects to the heap base; returns objects moved.

        Because every reference indirects through a handle, compaction only
        rewrites ``addr`` fields — the paper's motivation for keeping the
        handle indirection.  The free list collapses to one block.
        """
        live = sorted(self._handles.values(), key=lambda h: h.addr)
        cursor = 0
        moved = 0
        for handle in live:
            if handle.addr != cursor:
                handle.addr = cursor
                moved += 1
            cursor += handle.size
        self.free_list.replace_free_space(
            [(cursor, self.capacity - cursor)] if cursor < self.capacity else []
        )
        return moved

    def check_accounting(self, recycled_words: int = 0) -> None:
        """Invariant 5 of DESIGN.md: live + free + recycled words == capacity."""
        total = self.live_words + self.free_list.free_words + recycled_words
        if total != self.capacity:
            raise VMError(
                f"heap accounting broken: live {self.live_words} + free "
                f"{self.free_list.free_words} + recycled {recycled_words} "
                f"!= capacity {self.capacity}"
            )
