"""Event tracing: a bounded ring buffer of typed collector/VM events.

The thesis instruments Sun's interpreter at exactly the points where CG
learns something about an object's lifetime (section 3.1.3).  The tracer
records those same points as a replayable timeline, which is what the
related liveness work (Karkare et al.) uses to measure *excess retention*:
for any object you can read off when CG learned of it (``new``), every
merge that coarsened its lifetime (``union``), the promotion/pinning that
anchored it (``promote``/``pin``), and the frame pop that reclaimed it
(``frame_pop``/``block_collect``).

Design constraints:

* **Bounded** — a :class:`Tracer` holds at most ``capacity`` events in a
  ``deque(maxlen=...)``; on overflow the *oldest* events are dropped and
  ``dropped`` says how many.  Sequence numbers are global, so a truncated
  trace is detectable and still ordered.
* **Zero-overhead when off** — the default :class:`NullTracer` advertises
  ``enabled = False``; emit sites guard on a cached copy of that flag, so
  the disabled cost is one attribute test per *already-expensive* event
  (allocation, merge, frame pop), never per instruction.
* **Lossless JSONL** — events carry only JSON-scalar payloads (ints, strs,
  bools), so ``write_trace``/``read_trace`` round-trip exactly.
"""

from __future__ import annotations

import json
from collections import Counter, deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

#: Every event kind the runtime can emit, with the thesis section that
#: defines the underlying mechanism (see README "Observability").
EVENT_KINDS = (
    "new",            # object creation -> singleton block (section 3.1.3)
    "union",          # contamination merged two blocks (chapter 2)
    "promote",        # areturn moved a block to an older frame (section 2.3)
    "pin",            # block pinned to frame 0, with cause (sections 3.1.3-3.3)
    "frame_pop",      # a frame popped; its block list was collected (3.1.2)
    "block_collect",  # one equilive block reclaimed at a frame pop
    "reset_pass",     # a section 3.6 reset pass completed
    "recycle_hit",    # an allocation reused parked storage (section 3.7)
    "recycle_miss",   # the recycle search found no donor (section 3.7)
    "gc_start",       # the traditional (tracing) collector began a cycle
    "gc_end",         # ...and finished it
    "fault_inject",   # an armed FaultPlan site fired (repro.faults)
    "degrade",        # the allocation cascade tried the next recovery tier
    "oom_recover",    # ...and a tier satisfied the allocation
)

#: Default ring capacity: ample for quickstart-scale runs, bounded for
#: long ones (~1M events; each event is a small dict + tuple).
DEFAULT_CAPACITY = 1 << 20


@dataclass(frozen=True)
class TraceEvent:
    """One timestamped event: global sequence number, kind, payload."""

    seq: int
    kind: str
    data: Dict[str, object] = field(default_factory=dict)

    def to_json(self) -> str:
        record = {"seq": self.seq, "kind": self.kind}
        record.update(self.data)
        return json.dumps(record, sort_keys=True)

    @staticmethod
    def from_json(line: str) -> "TraceEvent":
        record = json.loads(line)
        seq = record.pop("seq")
        kind = record.pop("kind")
        return TraceEvent(seq, kind, record)


class Tracer:
    """Bounded event sink.  ``emit`` is the only hot-path method."""

    enabled = True

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity <= 0:
            raise ValueError("tracer capacity must be positive")
        self.capacity = capacity
        self.events: deque = deque(maxlen=capacity)
        self.emitted = 0

    def emit(self, kind: str, **data: object) -> None:
        self.events.append(TraceEvent(self.emitted, kind, data))
        self.emitted += 1

    @property
    def dropped(self) -> int:
        """Events lost to ring overflow (oldest-first)."""
        return self.emitted - len(self.events)

    @property
    def complete(self) -> bool:
        return self.dropped == 0

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self.events)

    def kind_counts(self) -> Counter:
        return Counter(event.kind for event in self.events)

    def clear(self) -> None:
        self.events.clear()
        self.emitted = 0


class NullTracer:
    """The default sink: emits nothing, costs nothing measurable."""

    enabled = False
    capacity = 0
    emitted = 0
    dropped = 0
    complete = True

    def emit(self, kind: str, **data: object) -> None:  # pragma: no cover
        pass

    def __len__(self) -> int:
        return 0

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(())

    def kind_counts(self) -> Counter:
        return Counter()


#: Shared no-op instance (stateless, safe to share across runtimes).
NULL_TRACER = NullTracer()


# ---------------------------------------------------------------------------
# Harness integration: an ambient tracer the runner picks up
# ---------------------------------------------------------------------------

_ACTIVE_TRACER: Optional[Tracer] = None


def get_active_tracer() -> Optional[Tracer]:
    """The tracer installed by :func:`tracing_to`, if any."""
    return _ACTIVE_TRACER


@contextmanager
def tracing_to(tracer: Tracer) -> Iterator[Tracer]:
    """Install ``tracer`` as the ambient sink for runs started inside.

    ``repro.api.run`` consults this so figure generators can be traced
    without threading a tracer through every call site.
    """
    global _ACTIVE_TRACER
    previous = _ACTIVE_TRACER
    _ACTIVE_TRACER = tracer
    try:
        yield tracer
    finally:
        _ACTIVE_TRACER = previous


# ---------------------------------------------------------------------------
# JSONL export / reload
# ---------------------------------------------------------------------------

def write_trace(path: str, tracer: Tracer) -> int:
    """Write a tracer's buffered events as JSONL; returns events written.

    The first line is a ``_meta`` record (emitted/dropped/capacity) so a
    reloaded trace knows whether it is complete.
    """
    meta = {
        "kind": "_meta",
        "emitted": tracer.emitted,
        "dropped": tracer.dropped,
        "capacity": tracer.capacity,
    }
    count = 0
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(meta, sort_keys=True) + "\n")
        for event in tracer:
            fh.write(event.to_json() + "\n")
            count += 1
    return count


def read_trace(path: str) -> Tuple[Dict[str, object], List[TraceEvent]]:
    """Reload a JSONL trace; returns (meta, events).

    Traces written without a ``_meta`` header (e.g. hand-built fixtures)
    get a synthesized one with ``dropped = 0``.
    """
    events: List[TraceEvent] = []
    meta: Optional[Dict[str, object]] = None
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            if record.get("kind") == "_meta":
                meta = record
                continue
            events.append(TraceEvent.from_json(line))
    if meta is None:
        meta = {"kind": "_meta", "emitted": len(events), "dropped": 0,
                "capacity": len(events)}
    return meta, events


# ---------------------------------------------------------------------------
# Summaries: recompute run counters from the event stream alone
# ---------------------------------------------------------------------------

@dataclass
class TraceSummary:
    """Headline counters recomputed purely from a trace.

    On a complete (non-overflowed) trace these match the live counters
    exactly: ``objects_popped`` equals ``CGStats.objects_popped`` and
    ``contaminations`` equals ``CGStats.contaminations`` — the tracer is a
    second, independent witness of the run.
    """

    events: int = 0
    complete: bool = True
    kind_counts: Dict[str, int] = field(default_factory=dict)
    objects_created: int = 0
    objects_popped: int = 0
    contaminations: int = 0
    promotions: int = 0
    frame_pops: int = 0
    blocks_collected: int = 0
    reset_passes: int = 0
    recycle_hits: int = 0
    recycle_misses: int = 0
    gc_cycles: int = 0
    faults_injected: int = 0
    degrades: int = 0
    oom_recoveries: int = 0
    pins_by_cause: Dict[str, int] = field(default_factory=dict)

    def render(self) -> str:
        lines = [
            f"events:           {self.events}"
            + ("" if self.complete else "  (INCOMPLETE: ring overflowed)"),
            f"objects created:  {self.objects_created}",
            f"objects popped:   {self.objects_popped}",
            f"contaminations:   {self.contaminations}",
            f"promotions:       {self.promotions}",
            f"frame pops:       {self.frame_pops}"
            f"  (blocks collected: {self.blocks_collected})",
            f"reset passes:     {self.reset_passes}",
            f"recycle hit/miss: {self.recycle_hits}/{self.recycle_misses}",
            f"gc cycles:        {self.gc_cycles}",
        ]
        if self.faults_injected or self.degrades or self.oom_recoveries:
            lines.append(
                f"faults:           injected={self.faults_injected} "
                f"degrades={self.degrades} recoveries={self.oom_recoveries}"
            )
        if self.pins_by_cause:
            causes = ", ".join(
                f"{cause}={count}"
                for cause, count in sorted(self.pins_by_cause.items())
            )
            lines.append(f"static pins:      {causes}")
        by_kind = ", ".join(
            f"{kind}={count}" for kind, count in sorted(self.kind_counts.items())
        )
        lines.append(f"by kind:          {by_kind}")
        return "\n".join(lines)


def summarize(events: Iterable[TraceEvent],
              complete: bool = True) -> TraceSummary:
    """Fold an event stream into a :class:`TraceSummary`."""
    summary = TraceSummary(complete=complete)
    kinds: Counter = Counter()
    pins: Counter = Counter()
    for event in events:
        summary.events += 1
        kinds[event.kind] += 1
        if event.kind == "frame_pop":
            summary.objects_popped += int(event.data.get("freed", 0))
        elif event.kind == "pin":
            pins[str(event.data.get("cause", "?"))] += 1
    summary.kind_counts = dict(kinds)
    summary.objects_created = kinds["new"]
    summary.contaminations = kinds["union"]
    summary.promotions = kinds["promote"]
    summary.frame_pops = kinds["frame_pop"]
    summary.blocks_collected = kinds["block_collect"]
    summary.reset_passes = kinds["reset_pass"]
    summary.recycle_hits = kinds["recycle_hit"]
    summary.recycle_misses = kinds["recycle_miss"]
    summary.gc_cycles = kinds["gc_start"]
    summary.faults_injected = kinds["fault_inject"]
    summary.degrades = kinds["degrade"]
    summary.oom_recoveries = kinds["oom_recover"]
    summary.pins_by_cause = dict(pins)
    return summary
