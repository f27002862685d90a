"""Phase profiling: where does a run's wall clock actually go?

The paper's timing argument (sections 4.5-4.6) decomposes cost into
mutator work, CG maintenance, and tracing-collector work; our cost model
charges those from counters.  The profiler measures the same decomposition
in *real* ``time.perf_counter()`` seconds, so the model's weights can be
sanity-checked against this substrate and hot paths can be found before
optimizing them.

Two instruments:

* **Phase timers** — named accumulators (``interpret``, ``cg-events``,
  ``msa``, ``recycle-search``) charged by the VM at coarse boundaries: one
  sample per interpreter dispatch call (one scheduling slice) / GC cycle /
  recycle search, never per instruction.
* **Depth profile** — interpreter time attributed to the shadow-stack
  depth at which it was spent: a one-dimensional flamegraph that shows
  which call depths dominate (and hence which frames' pops CG should win
  on).

As with tracing, the default :data:`NULL_PROFILER` advertises
``enabled = False`` and hot paths guard on that flag, so profiling-off
costs a branch, not a clock read.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import defaultdict, deque
from contextlib import contextmanager
from time import perf_counter
from typing import Dict, Iterator, List, Optional

#: Per-phase sample window for the latency distribution (a bounded deque:
#: percentiles reflect the most recent samples, memory stays O(1)).
SAMPLE_WINDOW = 512

#: Canonical phase names the VM charges (others are allowed).
PHASE_INTERPRET = "interpret"
PHASE_CG_EVENTS = "cg-events"
PHASE_MSA = "msa"
PHASE_RECYCLE = "recycle-search"
#: One-time closure compilation under ``dispatch="tiered"`` — charged per
#: method at first invocation, never on the hot loop.  (A promoted method
#: always has its closure form built first: it is the deopt target and
#: owns the quickening cells.)
PHASE_COMPILE = "compile"
#: One-time Python-source generation + ``exec`` when tiered dispatch
#: promotes a method, charged separately from
#: :data:`PHASE_COMPILE` so warmup cost decomposes into "closure compile"
#: vs "codegen" — the bench harness's ``compile_ms`` column is the sum.
PHASE_CODEGEN = "codegen"

#: Phases that count as *collector pause time* for per-request
#: attribution: the tracing collector (allocation-failure or periodic
#: MSA), CG's event handlers, and the recycle-list search.  Interpreter
#: and one-time compile/codegen phases are mutator/warmup time.
PAUSE_PHASES = frozenset({PHASE_MSA, PHASE_CG_EVENTS, PHASE_RECYCLE})

#: Phases that count as *warmup* (one-time compilation) for per-request
#: attribution: a request that first-invokes a method eats its closure
#: compile and codegen right inside the request window.  Tracked
#: separately from :data:`PAUSE_PHASES` so ``bench --sla`` can show
#: warmup pauses shrinking under tiered dispatch while collector pauses
#: stay untouched.
WARMUP_PHASES = frozenset({PHASE_COMPILE, PHASE_CODEGEN})

#: Pause-histogram bucket upper bounds in milliseconds (log-ish scale);
#: a sample lands in the first bucket whose bound is >= its duration,
#: and anything beyond the last bound lands in the overflow bucket, so
#: ``counts`` always has ``len(PAUSE_BUCKETS_MS) + 1`` entries.
PAUSE_BUCKETS_MS = (0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0,
                    50.0, 100.0)


def _nearest_rank(window: List[float]) -> Dict[str, float]:
    """p50/p99/p999/max (milliseconds) of an already-sorted sample list."""
    n = len(window)

    def rank(q: float) -> float:
        return window[min(n - 1, max(0, int(q * n + 0.5) - 1))]

    return {
        "p50_ms": rank(0.50) * 1000.0,
        "p99_ms": rank(0.99) * 1000.0,
        "p999_ms": rank(0.999) * 1000.0,
        "max_ms": window[-1] * 1000.0,
    }


class PhaseProfiler:
    """Accumulates seconds per named phase and per stack depth."""

    enabled = True

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        #: stack depth -> interpreter seconds spent at that depth.
        self.depth_seconds: Dict[int, float] = defaultdict(float)
        #: phase -> bounded window of recent per-sample durations, the
        #: raw material for :meth:`latency_summary`'s percentiles.
        self.samples: Dict[str, deque] = defaultdict(
            lambda: deque(maxlen=SAMPLE_WINDOW)
        )
        #: Full per-request samples (seconds): total window time and the
        #: pause-phase time that landed inside it.  Unbounded on purpose —
        #: p999 over a server run needs every request, not a window.
        self.request_totals: List[float] = []
        self.request_pauses: List[float] = []
        #: Per-request warmup time: :data:`WARMUP_PHASES` (one-time
        #: compile/codegen) samples that landed inside the window — the
        #: compile-budget attribution the tiered dispatch mode exists to
        #: shrink on early requests.
        self.request_compiles: List[float] = []
        #: Histogram of *every* pause-phase sample (inside a request
        #: window or not), bucketed per :data:`PAUSE_BUCKETS_MS`.
        self.pause_hist: List[int] = [0] * (len(PAUSE_BUCKETS_MS) + 1)
        self._request_started: Optional[float] = None
        self._request_pause = 0.0
        self._request_compile = 0.0

    def add(self, phase: str, seconds: float) -> None:
        self.seconds[phase] += seconds
        self.calls[phase] += 1
        self.samples[phase].append(seconds)
        if phase in PAUSE_PHASES:
            self.pause_hist[
                bisect_left(PAUSE_BUCKETS_MS, seconds * 1000.0)
            ] += 1
            if self._request_started is not None:
                self._request_pause += seconds
        elif phase in WARMUP_PHASES:
            if self._request_started is not None:
                self._request_compile += seconds

    # ------------------------------------------------------------------
    # Per-request attribution
    # ------------------------------------------------------------------

    def request_begin(self) -> None:
        """Open a request window: pause- and warmup-phase time now
        accrues to it."""
        self._request_pause = 0.0
        self._request_compile = 0.0
        self._request_started = perf_counter()

    def request_end(self) -> None:
        """Close the window and record (total, pause, compile)."""
        started = self._request_started
        if started is None:
            return
        self._request_started = None
        self._note_request(perf_counter() - started, self._request_pause,
                           self._request_compile)

    def _note_request(self, total_s: float, pause_s: float,
                      compile_s: float = 0.0) -> None:
        self.request_totals.append(total_s)
        self.request_pauses.append(pause_s)
        self.request_compiles.append(compile_s)

    def charge_depth(self, depth: int, seconds: float) -> None:
        self.depth_seconds[depth] += seconds

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Time a block (convenience wrapper for non-hot call sites)."""
        started = perf_counter()
        try:
            yield
        finally:
            self.add(name, perf_counter() - started)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def total_seconds(self) -> float:
        return sum(self.seconds.values())

    def latency_summary(self) -> Dict[str, Dict]:
        """Per-phase timing percentiles over the recent sample window.

        ``{phase: {"p50_ms", "p99_ms", "max_ms", "samples", "window"}}``
        — nearest-rank percentiles in milliseconds.  ``samples`` is the
        lifetime count (``calls``); ``window`` is how many of them back
        the percentiles (at most :data:`SAMPLE_WINDOW`).  This is the
        timing distribution the ``cg-snapshot`` schema carries: the
        counters say how much total time each phase took, this says how
        that time was *shaped* — the tail the paper's no-marking-pause
        claim is really about.
        """
        summary: Dict[str, Dict] = {}
        for phase in sorted(self.samples):
            window = sorted(self.samples[phase])
            if not window:
                continue
            entry = _nearest_rank(window)
            entry["samples"] = self.calls[phase]
            entry["window"] = len(window)
            summary[phase] = entry
        return summary

    def request_summary(self) -> Optional[Dict]:
        """Per-request latency attribution, or None before any request.

        Splits each request's wall time into mutator work and collector
        pause time (the :data:`PAUSE_PHASES` samples that landed inside
        the window) and reports nearest-rank p50/p99/p999/max over the
        *full* run — unlike :meth:`latency_summary`, no sliding window,
        because a server's tail is precisely the samples a window would
        age out.  ``pause_hist`` buckets every pause-phase sample (in- or
        out-of-request) per :data:`PAUSE_BUCKETS_MS` plus one overflow
        slot.
        """
        totals = self.request_totals
        if not totals:
            return None
        pauses = self.request_pauses
        compiles = self.request_compiles
        total_s = sum(totals)
        pause_s = sum(pauses)
        compile_s = sum(compiles)
        mutator = [max(0.0, t - p) for t, p in zip(totals, pauses)]
        return {
            "requests": len(totals),
            "request_ms": _nearest_rank(sorted(totals)),
            "pause_ms": _nearest_rank(sorted(pauses)),
            "mutator_ms": _nearest_rank(sorted(mutator)),
            # Warmup attribution: compile/codegen time that landed inside
            # request windows, plus the first request's wall and compile
            # share — the cold-start numbers tiered promotion shrinks.
            "compile_ms": _nearest_rank(sorted(compiles)),
            "compile_total_ms": compile_s * 1000.0,
            "first_request_ms": totals[0] * 1000.0,
            "first_request_compile_ms": (compiles[0] * 1000.0
                                         if compiles else 0.0),
            "pause_share_pct": (100.0 * pause_s / total_s) if total_s else 0.0,
            "pause_hist": {
                "le_ms": list(PAUSE_BUCKETS_MS),
                "counts": list(self.pause_hist),
            },
        }

    def to_dict(self) -> Dict[str, Dict]:
        return {
            "phases": {
                name: {"seconds": self.seconds[name], "samples": self.calls[name]}
                for name in sorted(self.seconds)
            },
            "depth_seconds": {
                str(depth): seconds
                for depth, seconds in sorted(self.depth_seconds.items())
            },
        }

    def render(self) -> str:
        """Human-readable report: phase table + depth bars."""
        total = self.total_seconds() or 1.0
        lines = ["phase              seconds   share  samples"]
        for name in sorted(self.seconds, key=self.seconds.get, reverse=True):
            seconds = self.seconds[name]
            lines.append(
                f"{name:<18} {seconds:8.4f}  {100.0 * seconds / total:5.1f}%"
                f"  {self.calls[name]}"
            )
        if self.depth_seconds:
            lines.append("")
            lines.append("interpreter time by stack depth:")
            peak = max(self.depth_seconds.values()) or 1.0
            for depth in sorted(self.depth_seconds):
                seconds = self.depth_seconds[depth]
                bar = "#" * max(1, int(40 * seconds / peak))
                lines.append(f"  depth {depth:>3} {seconds:8.4f}s {bar}")
        return "\n".join(lines)


class NullProfiler:
    """No-op stand-in; ``enabled`` is False so hot paths skip the clock."""

    enabled = False
    seconds: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    depth_seconds: Dict[int, float] = {}
    samples: Dict[str, deque] = {}
    request_totals: List[float] = []
    request_pauses: List[float] = []
    request_compiles: List[float] = []
    pause_hist: List[int] = []

    def add(self, phase: str, seconds: float) -> None:  # pragma: no cover
        pass

    def charge_depth(self, depth: int, seconds: float) -> None:  # pragma: no cover
        pass

    def request_begin(self) -> None:
        pass

    def request_end(self) -> None:
        pass

    def request_summary(self) -> Optional[Dict]:
        return None

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        yield

    def total_seconds(self) -> float:
        return 0.0

    def latency_summary(self) -> Dict[str, Dict]:
        return {}

    def to_dict(self) -> Dict[str, Dict]:
        return {"phases": {}, "depth_seconds": {}}


#: Shared no-op instance (stateless, safe to share across runtimes).
NULL_PROFILER = NullProfiler()
