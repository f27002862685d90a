"""String objects and the intern table (thesis section 3.2).

JDK 1.1.8 implements ``String.intern()`` with an interpreter-internal hash
table whose references "are essentially static, since a String must map to
the same reference via intern() for the duration of a program".  Because
those references are invisible to the bytecode stream, the thesis had to
insert explicit collector calls — we reproduce that: interning a string pins
its equilive block to frame 0 via ``on_intern``, and the intern table is a
root for the tracing collectors.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional, TYPE_CHECKING

from .errors import VMError
from .heap import Handle

if TYPE_CHECKING:  # pragma: no cover
    from .runtime import Runtime


class InternTable:
    """Maps string contents to their unique canonical String object."""

    def __init__(self) -> None:
        self._table: Dict[str, Handle] = {}
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._table)

    def lookup(self, contents: str) -> Optional[Handle]:
        return self._table.get(contents)

    def intern(self, handle: Handle, runtime: "Runtime") -> Handle:
        """Return the canonical String with ``handle``'s contents.

        On first sight the argument itself becomes canonical and its block is
        pinned static; later calls with equal contents return the canonical
        object (so ``==``-style identity comparison works, as in the JDK).
        """
        handle.check_live()
        contents = handle.pyvalue
        if not isinstance(contents, str):
            raise VMError(f"intern() of non-string object {handle!r}")
        canonical = self._table.get(contents)
        if canonical is not None and not canonical.freed:
            self.hits += 1
            return canonical
        self._table[contents] = handle
        self.misses += 1
        if runtime.collector is not None:
            runtime.collector.on_intern(handle)
        return handle

    def roots(self) -> Iterator[Handle]:
        for handle in self._table.values():
            if not handle.freed:
                yield handle
