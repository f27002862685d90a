"""Equilive blocks: the partition of heap objects CG maintains.

An *equilive block* is one class of the equilive equivalence relation
(thesis section 2.2): a set of objects treated as having the same lifetime,
dependent on a single stack frame.  Blocks live on their dependent frame's
``cg_blocks`` list (section 3.1.2) and are merged by union-find when objects
contaminate each other.

Representation: the union-find forest lives on the objects it partitions,
as in the thesis's extra handle words (section 3.1.1).  Every
:class:`~repro.jvm.heap.Handle` carries a parent pointer ``uf`` (None on a
root); a root's ``block`` points at its :class:`EquiliveBlock`, which
carries the ``root`` and its ``rank``.  A handle whose root has no block is
untracked: never registered, or its block died.  When a block dies (frame
pop, merge loser, dismantle) the root<->block link is cleared, so a dead
block and its handles hold no reference cycle and are freed by refcount.

``members`` uses lazy deletion — an object reclaimed out of band (by the
tracing collector) just stays in the list with its ``freed`` flag set and
is skipped when the block is collected — so merging is O(1) amortised and
nothing is ever removed from the middle of a list, exactly like the
linked-list splices the paper's implementation uses.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional

from ..jvm.errors import IllegalStateError
from ..jvm.frames import Frame, StaticFrame
from ..jvm.heap import Handle


class EquiliveBlock:
    """One equilive set: members, dependent frame, and pin bookkeeping."""

    __slots__ = ("members", "frame", "static_cause", "ever_unioned", "root",
                 "rank")

    def __init__(self, handle: Handle, frame: Frame) -> None:
        self.members: List[Handle] = [handle]
        self.frame = frame
        #: None while collectible; otherwise the cause that pinned it static.
        self.static_cause: Optional[str] = None
        self.ever_unioned = False
        #: The union-find root this block hangs off (None once dead).
        self.root: Optional[Handle] = handle
        #: Union-by-rank rank of ``root``'s tree.
        self.rank = 0

    @property
    def is_static(self) -> bool:
        return self.static_cause is not None

    def live_members(self) -> Iterator[Handle]:
        for handle in self.members:
            if not handle.freed:
                yield handle

    def live_size(self) -> int:
        return sum(1 for _ in self.live_members())

    def __repr__(self) -> str:
        where = self.static_cause or f"frame#{self.frame.frame_id}"
        return f"<EquiliveBlock n={len(self.members)} on {where}>"


def find_root(handle: Handle) -> Handle:
    """Root of ``handle``'s union-find tree, compressing the path.

    Counts nothing: callers charge ``EquiliveManager.finds``.
    """
    root = handle.uf
    if root is None:
        return handle
    parent = root.uf
    while parent is not None:
        root = parent
        parent = root.uf
    node = handle
    while node.uf is not root:
        node.uf, node = root, node.uf
    return root


def untracked_error(handle: Handle) -> IllegalStateError:
    return IllegalStateError(
        f"object #{handle.id} has no equilive block (freed or untracked)"
    )


class EquiliveManager:
    """Union-find over handles plus block payloads and frame lists.

    This layer is policy-free: it knows how to create, look up, merge, move,
    and dismantle blocks, and it maintains the invariant that every block is
    on exactly one frame list (the static frame's list for pinned blocks).
    The :class:`~repro.core.collector.ContaminatedCollector` applies the
    paper's rules on top, inlining the hot halves of these methods; the
    ``finds``/``unions`` work counters (the cost model's union-find charge)
    are kept identical on both paths: one find per lookup (``block_of``,
    ``has_block``, ``detach``, each invariant-check member) and four finds
    plus one union per merge.
    """

    def __init__(self, static_frame: StaticFrame) -> None:
        self.static_frame = static_frame
        #: Insertion-ordered set of live blocks.
        self.live: Dict[EquiliveBlock, None] = {}
        self.finds = 0
        self.unions = 0

    # ------------------------------------------------------------------
    # Creation / lookup
    # ------------------------------------------------------------------

    def create(self, handle: Handle, frame: Frame) -> EquiliveBlock:
        """Make a fresh singleton block for ``handle`` (new or untracked)."""
        block = EquiliveBlock(handle, frame)
        handle.uf = None
        handle.block = block
        self.live[block] = None
        frame.cg_blocks[block] = None
        return block

    def block_of(self, handle: Handle) -> EquiliveBlock:
        self.finds += 1
        block = find_root(handle).block
        if block is None:
            raise untracked_error(handle)
        return block

    def has_block(self, handle: Handle) -> bool:
        self.finds += 1
        return find_root(handle).block is not None

    def blocks(self) -> Iterator[EquiliveBlock]:
        return iter(self.live)

    def block_count(self) -> int:
        return len(self.live)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def merge(self, a: EquiliveBlock, b: EquiliveBlock,
              target_frame: Frame) -> EquiliveBlock:
        """Union two distinct blocks; the result depends on ``target_frame``.

        The caller computes ``target_frame`` per the paper's rules (older of
        the two dependent frames, or the static frame).  Union by rank
        picks the surviving root (``a``'s on a tie); member lists are
        spliced smaller-into-larger.
        """
        if a is b:
            raise IllegalStateError("merge of a block with itself")
        # Both roots are on the blocks, so no walk is needed; the counters
        # still charge the two finds plus union's two root lookups.
        self.finds += 4
        self.unions += 1
        if a.rank < b.rank:
            winner, loser = b, a
        else:
            winner, loser = a, b
            if a.rank == b.rank:
                a.rank += 1
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
        # Remove both from their frame lists, reattach winner to the target.
        del winner.frame.cg_blocks[winner]
        del loser.frame.cg_blocks[loser]
        del self.live[loser]
        # Static causes survive a merge: if either side was pinned the merged
        # block is pinned, preferring the side that was already static.
        if winner.static_cause is None and loser.static_cause is not None:
            winner.static_cause = loser.static_cause
        winner.frame = target_frame
        target_frame.cg_blocks[winner] = None
        return winner

    def move_to_frame(self, block: EquiliveBlock, frame: Frame) -> None:
        """Re-hang ``block`` on a different frame's list (areturn, pinning)."""
        if block.frame is frame:
            return
        del block.frame.cg_blocks[block]
        block.frame = frame
        frame.cg_blocks[block] = None

    def pin_static(self, block: EquiliveBlock, cause: str) -> None:
        if block.static_cause is None:
            block.static_cause = cause
        self.move_to_frame(block, self.static_frame)

    def detach(self, block: EquiliveBlock) -> None:
        """Remove a block entirely (its objects are being collected)."""
        del block.frame.cg_blocks[block]
        self.finds += 1
        del self.live[block]
        block.root.block = None
        block.root = None

    def forget_members(self, block: EquiliveBlock) -> None:
        """Make every member of a detached block an untracked singleton,
        so live members can be re-registered (section 3.6 reset)."""
        for handle in block.members:
            handle.uf = None
            handle.block = None

    def dismantle_all(self) -> List[EquiliveBlock]:
        """Tear down every block (start of a section 3.6 reset pass)."""
        blocks = list(self.live)
        for block in blocks:
            del block.frame.cg_blocks[block]
            self.forget_members(block)
            block.root = None
        self.live.clear()
        return blocks

    # ------------------------------------------------------------------
    # Validation (used by tests; invariant 4 of DESIGN.md)
    # ------------------------------------------------------------------

    def check_invariants(self, frames: List[Frame]) -> None:
        seen: Dict[EquiliveBlock, Frame] = {}
        for frame in frames:
            for block in frame.cg_blocks:
                if block in seen:
                    raise IllegalStateError(f"{block!r} on two frame lists")
                seen[block] = frame
                if block.frame is not frame:
                    raise IllegalStateError(f"{block!r} frame pointer stale")
        if set(self.live) != set(seen):
            raise IllegalStateError(
                "block registry and frame lists disagree: "
                f"{len(self.live)} registered vs {len(seen)} listed"
            )
        for block in self.live:
            root = block.root
            if root is None or root.uf is not None or root.block is not block:
                raise IllegalStateError(f"{block!r} root link broken")
            for handle in block.live_members():
                self.finds += 1
                if find_root(handle) is not root:
                    raise IllegalStateError(
                        f"member #{handle.id} not in its block's set"
                    )
