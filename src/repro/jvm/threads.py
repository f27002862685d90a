"""Threads and the deterministic cooperative scheduler.

The paper's thread treatment needs only one observable: *which thread
performs each heap access* (section 3.3 pins objects touched by a second
thread).  A deterministic round-robin quantum scheduler provides exactly
that while keeping every run reproducible — while two or more threads are
runnable, the interpreter executes up to ``quantum`` instructions of one
thread, then rotates.  A thread running alone is driven in slices of
several quanta that end early where a second thread becomes runnable
(:meth:`repro.jvm.interpreter.Interpreter.run_program`), which retires
the same instructions in the same order.

Direct-drive workloads interleave explicitly (they call mutator APIs on
whichever :class:`JThread`'s mutator they like), so they bypass the
scheduler but exercise the identical sharing detection.
"""

from __future__ import annotations

from typing import List, Optional

from .errors import IllegalStateError
from .frames import CallStack, FrameIdSource


class JThread:
    """One VM thread: an id, a call stack, and scheduler state."""

    __slots__ = ("thread_id", "name", "stack", "alive", "started", "result")

    def __init__(self, thread_id: int, name: str, id_source: FrameIdSource) -> None:
        self.thread_id = thread_id
        self.name = name
        self.stack = CallStack(thread_id, id_source)
        self.alive = True
        self.started = False
        self.result: object = None

    @property
    def finished(self) -> bool:
        return self.started and not self.stack.frames

    def __repr__(self) -> str:
        state = "dead" if not self.alive else ("running" if self.started else "new")
        return f"<JThread {self.thread_id} {self.name!r} {state} depth={self.stack.depth}>"


class Scheduler:
    """Round-robin over runnable threads with a fixed instruction quantum."""

    def __init__(self, quantum: int = 100) -> None:
        if quantum <= 0:
            raise ValueError("quantum must be positive")
        self.quantum = quantum
        self._threads: List[JThread] = []
        self._cursor = 0

    def register(self, thread: JThread) -> None:
        self._threads.append(thread)

    @property
    def threads(self) -> List[JThread]:
        return list(self._threads)

    def runnable(self) -> List[JThread]:
        return [t for t in self._threads if t.alive and t.stack.frames]

    def next_thread(self) -> Optional[JThread]:
        """Pick the next runnable thread after the cursor (round-robin)."""
        n = len(self._threads)
        if n == 0:
            return None
        for probe in range(n):
            i = (self._cursor + probe) % n
            thread = self._threads[i]
            if thread.alive and thread.stack.frames:
                self._cursor = (i + 1) % n
                return thread
        return None

    def retire(self, thread: JThread) -> None:
        if thread not in self._threads:
            raise IllegalStateError("retiring unknown thread")
        thread.alive = False
