"""Metrics registry: one snapshot/delta-able view of a runtime's counters.

Before this module every consumer read raw attributes from three places —
``collector.stats`` (a ``CGStats``), ``heap``/``heap.free_list``, and
``tracing.work`` (a ``GCWork``) — and each figure generator, benchmark, and
``BENCH_*.json`` row did its own ad-hoc aggregation.  The registry is the
single source of truth: ``collect_runtime_metrics`` folds all three (plus
union-find work, recycle-list state, and phase-profile samples) into typed
namespaced metrics:

* **counters** — monotone totals (``cg.objects_popped``, ``gc.mark_visits``)
* **gauges** — instantaneous levels (``heap.live_words``, ``heap.occupancy``)
* **histograms** — bucketed distributions (``cg.age_hist``,
  ``profile.depth_seconds``)

Snapshots are plain dicts, so ``delta`` (this window minus the last) and
JSONL emission are trivial; the harness's rows and benchmark JSON read from
here instead of reaching into subsystem internals.
"""

from __future__ import annotations

import dataclasses
import json
from collections import Counter
from typing import Dict, Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from ..jvm.runtime import Runtime


class MetricsRegistry:
    """Counters, gauges, and histograms under dotted names."""

    def __init__(self) -> None:
        self.counters: Dict[str, int] = {}
        self.gauges: Dict[str, float] = {}
        self.histograms: Dict[str, Dict[str, int]] = {}

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------

    def inc(self, name: str, amount: int = 1) -> int:
        """Increment a counter (created at 0)."""
        value = self.counters.get(name, 0) + amount
        self.counters[name] = value
        return value

    def set_counter(self, name: str, value: int) -> None:
        """Set a counter outright (used when folding in finished totals)."""
        self.counters[name] = int(value)

    def set_gauge(self, name: str, value: float) -> None:
        self.gauges[name] = float(value)

    def observe(self, name: str, bucket: object, count: int = 1) -> None:
        """Add ``count`` observations to ``bucket`` of histogram ``name``."""
        hist = self.histograms.setdefault(name, {})
        key = str(bucket)
        hist[key] = hist.get(key, 0) + count

    def merge_histogram(self, name: str, buckets: Dict) -> None:
        for bucket, count in buckets.items():
            self.observe(name, bucket, int(count))

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------

    def to_dict(self) -> Dict[str, Dict]:
        return {
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "histograms": {k: dict(v) for k, v in self.histograms.items()},
        }

    def snapshot(self) -> Dict[str, float]:
        """Flat name -> value view of counters and gauges (histograms omitted)."""
        flat: Dict[str, float] = {}
        flat.update(self.counters)
        flat.update(self.gauges)
        return flat

    def delta(self, earlier: Dict[str, float]) -> Dict[str, float]:
        """Change of every counter/gauge since an earlier :meth:`snapshot`."""
        now = self.snapshot()
        out: Dict[str, float] = {}
        for name, value in now.items():
            change = value - earlier.get(name, 0)
            if change:
                out[name] = change
        for name in earlier:
            if name not in now:
                out[name] = -earlier[name]
        return out

    def to_json_line(self, **labels: object) -> str:
        """One JSONL record: labels + the full typed dump."""
        record: Dict[str, object] = dict(labels)
        record.update(self.to_dict())
        return json.dumps(record, sort_keys=True)

    @staticmethod
    def from_dict(data: Dict[str, Dict]) -> "MetricsRegistry":
        registry = MetricsRegistry()
        registry.counters.update(
            {k: int(v) for k, v in data.get("counters", {}).items()}
        )
        registry.gauges.update(
            {k: float(v) for k, v in data.get("gauges", {}).items()}
        )
        for name, buckets in data.get("histograms", {}).items():
            # setdefault first: a histogram serialized with zero buckets
            # must survive the round trip (merge alone would drop it and
            # to_dict -> from_dict -> to_dict would not be the identity).
            registry.histograms.setdefault(name, {})
            registry.merge_histogram(name, buckets)
        return registry


def collect_runtime_metrics(
    runtime: "Runtime", registry: Optional[MetricsRegistry] = None
) -> MetricsRegistry:
    """Fold a runtime's subsystem counters into one registry.

    Safe to call mid-run (for sampling) or after it (for final rows):
    everything here is a read.
    """
    reg = registry or MetricsRegistry()

    reg.set_counter("vm.ops", runtime.ops)

    # --- per-opcode histogram (count_opcodes runs only) -------------------
    # getattr, not the lazy property: collecting metrics must not force the
    # creation of an interpreter the run never used.
    interp = getattr(runtime, "_interpreter", None)
    if interp is not None and getattr(interp, "count_ops", False):
        op_hist = interp.opcode_histogram()
        if op_hist:
            reg.merge_histogram("vm.op", op_hist)

    # --- compile budget (always-on interpreter accounting) ----------------
    if interp is not None:
        reg.set_counter("vm.compile.codegenned", interp.methods_codegenned)
        reg.set_counter("vm.compile.promoted", interp.methods_promoted)
        reg.set_gauge("vm.compile.ms", interp.codegen_seconds * 1000.0)

    # --- heap + allocator -------------------------------------------------
    heap = runtime.heap
    for name, value in heap.occupancy().items():
        reg.set_gauge(f"heap.{name}", value)
    reg.set_counter("heap.objects_created", heap.objects_created)
    reg.set_counter("heap.words_allocated", heap.words_allocated)
    reg.set_counter("heap.words_freed", heap.bytes_freed)
    free_list = heap.free_list
    reg.set_counter("alloc.search_steps", free_list.search_steps)
    reg.set_counter("alloc.allocs", free_list.allocs)
    reg.set_counter("alloc.frees", free_list.frees)

    # --- tracing collector ------------------------------------------------
    work = runtime.tracing.work
    for fld in dataclasses.fields(work):
        reg.set_counter(f"gc.{fld.name}", getattr(work, fld.name))

    # --- CG collector -----------------------------------------------------
    collector = runtime.collector
    if collector is not None:
        stats = collector.stats
        for fld in dataclasses.fields(stats):
            value = getattr(stats, fld.name)
            if isinstance(value, Counter):
                reg.merge_histogram(f"cg.{fld.name}", value)
            else:
                reg.set_counter(f"cg.{fld.name}", value)
        equilive = collector.equilive
        reg.set_counter("cg.uf_finds", equilive.finds)
        reg.set_counter("cg.uf_unions", equilive.unions)
        reg.set_gauge("cg.blocks_live", collector.equilive.block_count())
        reg.set_gauge("cg.recycle_parked_words", collector.recycle.parked_words)
        reg.set_gauge("cg.recycle_parked_objects", len(collector.recycle))

    # --- fault injection / recovery cascade -------------------------------
    # Only folded when nonzero, so a clean run's metrics dict is unchanged.
    fault_stats = getattr(runtime, "fault_stats", None)
    if fault_stats:
        for name in sorted(fault_stats):
            reg.set_counter(f"fault.{name}", fault_stats[name])

    # --- tracer + profiler (observability observing itself) ---------------
    tracer = runtime.tracer
    if tracer.enabled:
        reg.set_counter("trace.emitted", tracer.emitted)
        reg.set_counter("trace.dropped", tracer.dropped)
    profiler = runtime.profiler
    if profiler.enabled:
        for phase, seconds in profiler.seconds.items():
            reg.set_gauge(f"profile.{phase}_s", seconds)
            reg.set_counter(f"profile.{phase}_samples", profiler.calls[phase])
        depth_hist = {
            depth: int(seconds * 1e9)
            for depth, seconds in sorted(profiler.depth_seconds.items())
        }
        if depth_hist:
            reg.merge_histogram("profile.depth_ns", depth_hist)
    return reg
