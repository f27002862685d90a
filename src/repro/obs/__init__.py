"""repro.obs — observability for the CG runtime.

Four independent layers, each a no-op unless explicitly enabled:

* :mod:`repro.obs.events` — a bounded ring-buffer :class:`Tracer` the
  collector and VM emit typed events into (``new``, ``union``, ``promote``,
  ``pin``, ``frame_pop``, ``block_collect``, ``reset_pass``,
  ``recycle_hit``/``recycle_miss``, ``gc_start``/``gc_end``), with JSONL
  export, reload, and a :func:`summarize` that recomputes a run's headline
  counters from the event stream alone.
* :mod:`repro.obs.metrics` — a :class:`MetricsRegistry` of counters, gauges
  and histograms unifying ``CGStats``, heap occupancy, and tracing-GC work
  into one snapshot/delta-able view with ``to_dict()``/JSONL emission.
* :mod:`repro.obs.profile` — ``perf_counter``-based phase timers
  (cg-events, msa, recycle-search, codegen; none runs inside another)
  plus per-request latency and pause attribution.
* :mod:`repro.obs.heartbeat` / :mod:`repro.obs.inspect` — periodic
  :class:`LiveSnapshot` heartbeats spooled to disk every N mutator
  operations, and the out-of-process
  ``python -m repro inspect`` reader that renders single runs or a
  fleet-wide rollup from the spool.

The default wiring installs :data:`NULL_TRACER` and :data:`NULL_PROFILER`,
whose ``enabled`` flag is ``False``; every hook in the hot paths guards on
that flag, so observability-off costs one attribute test, not a call.
"""

from .events import (
    EVENT_KINDS,
    NULL_TRACER,
    NullTracer,
    TraceEvent,
    Tracer,
    TraceSummary,
    read_trace,
    summarize,
    tracing_to,
    get_active_tracer,
    write_trace,
)
from .heartbeat import (
    SNAPSHOT_SCHEMA,
    Heartbeat,
    LiveSnapshot,
    default_spool_dir,
    runtime_snapshot,
)
from .metrics import MetricsRegistry, collect_runtime_metrics
from .profile import NULL_PROFILER, NullProfiler, PhaseProfiler

__all__ = [
    "EVENT_KINDS",
    "Heartbeat",
    "LiveSnapshot",
    "MetricsRegistry",
    "SNAPSHOT_SCHEMA",
    "NULL_PROFILER",
    "NULL_TRACER",
    "NullProfiler",
    "NullTracer",
    "PhaseProfiler",
    "TraceEvent",
    "Tracer",
    "TraceSummary",
    "collect_runtime_metrics",
    "default_spool_dir",
    "get_active_tracer",
    "runtime_snapshot",
    "read_trace",
    "summarize",
    "tracing_to",
    "write_trace",
]
