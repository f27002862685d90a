"""Phase profiling: where does a run's wall clock actually go?

The paper's timing argument (sections 4.5-4.6) decomposes cost into
mutator work, CG maintenance, and tracing-collector work; our cost model
charges those from counters.  The profiler measures the collector's side
of that decomposition in *real* ``time.perf_counter()`` seconds, so the
model's weights can be sanity-checked against this substrate.

Four phase timers, charged by the VM at coarse boundaries (one sample per
CG event handler call, GC cycle, recycle search or method promotion,
never per instruction): ``cg-events``, ``msa``, ``recycle-search`` and
``codegen``.  None of them runs inside another, so their seconds add up
to no more than the run's wall time; the rest is mutator work.  On top of
the timers sits per-request attribution for request-structured workloads
(:meth:`PhaseProfiler.request_summary`).

As with tracing, the default :data:`NULL_PROFILER` advertises
``enabled = False`` and hot paths guard on that flag, so profiling-off
costs a branch, not a clock read.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import defaultdict
from time import perf_counter
from typing import Dict, List, Optional

#: The phase names the VM charges.
PHASE_CG_EVENTS = "cg-events"
PHASE_MSA = "msa"
PHASE_RECYCLE = "recycle-search"
#: One-time link + Python-source generation + ``exec`` when tiered
#: dispatch promotes a method (a codegen-cache hit pays only the link and
#: the binding rebuild) — never on the hot loop.  Its seconds are the
#: ones the interpreter's always-on ``vm.compile.ms`` gauge adds up.
PHASE_CODEGEN = "codegen"

#: Phases that count as *collector pause time* for per-request
#: attribution: the tracing collector (allocation-failure or periodic
#: MSA), CG's event handlers, and the recycle-list search.  One-time
#: codegen is warmup time.
PAUSE_PHASES = frozenset({PHASE_MSA, PHASE_CG_EVENTS, PHASE_RECYCLE})

#: Phases that count as *warmup* (one-time compilation) for per-request
#: attribution: a request that promotes a method eats its codegen right
#: inside the request window.  Tracked separately from
#: :data:`PAUSE_PHASES` so ``bench --sla`` can show warmup pauses
#: shrinking under tiered dispatch while collector pauses stay untouched.
WARMUP_PHASES = frozenset({PHASE_CODEGEN})

#: Pause-histogram bucket upper bounds in milliseconds (log-ish scale);
#: a sample lands in the first bucket whose bound is >= its duration,
#: and anything beyond the last bound lands in the overflow bucket, so
#: ``counts`` always has ``len(PAUSE_BUCKETS_MS) + 1`` entries.
PAUSE_BUCKETS_MS = (0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0,
                    50.0, 100.0)


def _nearest_rank(window: List[float]) -> Dict[str, Optional[float]]:
    """p50/p99/p999/max (milliseconds) of an already-sorted sample list.

    A tail percentile whose rank lands on the last sample only restates
    the max — p999 from 500 samples or fewer, p99 from 50 or fewer — so
    it is reported as None rather than as a resolved percentile.
    """
    n = len(window)

    def tail(q: float) -> Optional[float]:
        index = int(q * n + 0.5) - 1
        return window[index] * 1000.0 if index < n - 1 else None

    return {
        "p50_ms": window[int(0.5 * n + 0.5) - 1] * 1000.0,
        "p99_ms": tail(0.99),
        "p999_ms": tail(0.999),
        "max_ms": window[-1] * 1000.0,
    }


class PhaseProfiler:
    """Accumulates seconds per named phase and per request."""

    enabled = True

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        #: Full per-request samples (seconds): total window time and the
        #: pause-phase time that landed inside it.  Unbounded on purpose —
        #: p999 over a server run needs every request, not a window.
        self.request_totals: List[float] = []
        self.request_pauses: List[float] = []
        #: Per-request warmup time: :data:`WARMUP_PHASES` (one-time
        #: codegen) samples that landed inside the window — the
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

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def request_summary(self) -> Optional[Dict]:
        """Per-request latency attribution, or None before any request.

        Splits each request's wall time into mutator work and collector
        pause time (the :data:`PAUSE_PHASES` samples that landed inside
        the window) and reports nearest-rank p50/p99/p999/max over the
        *full* run — no sliding window, because a server's tail is
        precisely the samples a window would age out.  ``pause_hist``
        buckets every pause-phase sample (in- or out-of-request) per
        :data:`PAUSE_BUCKETS_MS` plus one overflow slot.
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
            # Warmup attribution: codegen time that landed inside
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


class NullProfiler:
    """No-op stand-in; ``enabled`` is False so hot paths skip the clock."""

    enabled = False
    seconds: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    request_totals: List[float] = []
    request_pauses: List[float] = []
    request_compiles: List[float] = []
    pause_hist: List[int] = []

    def add(self, phase: str, seconds: float) -> None:  # pragma: no cover
        pass

    def request_begin(self) -> None:
        pass

    def request_end(self) -> None:
        pass

    def request_summary(self) -> Optional[Dict]:
        return None


#: Shared no-op instance (stateless, safe to share across runtimes).
NULL_PROFILER = NullProfiler()
