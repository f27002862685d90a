"""Live snapshots and the heartbeat that spools them.

The paper's central claim — reclamation at frame-pop with no marking
pause — is a claim about *runtime behavior*, but until now the only
window into an in-flight run was a :class:`~repro.faults.CrashDump` at
death or a trace file after the fact.  This module generalizes the crash
dump into a :class:`LiveSnapshot` any observer can take at any op
boundary, and a :class:`Heartbeat` that serializes one every
``heartbeat_every`` mutator operations to a well-known spool path, where
``python -m repro inspect`` (see :mod:`repro.obs.inspect`) can render it
from another process.

Design constraints, in order:

* **Determinism.**  The cadence is pure op-counter arithmetic driven from
  :meth:`repro.jvm.runtime.Runtime.tick` — snapshots fire when ``ops``
  crosses a multiple of ``heartbeat_every``, identically under both
  dispatch modes.  Wall-clock fields (``time``, ``uptime_s``) are advisory
  labels on the snapshot, never inputs to it, so arming a heartbeat
  leaves a run's counters bit-identical to a heartbeat-off run.
* **Zero cost when off; same code path when on.**  ``heartbeat_every=None``
  (the default) leaves the tick a bare counter bump; no hook, no branch.
  Armed, the tick compares ``ops`` against one deadline, and bytecode runs
  still take the production dispatch loops: the interpreter ends slices
  where a beat is due.
* **Crash-safe publication.**  Each beat rewrites the run's spool file
  through a temp file + ``os.replace`` (atomic on POSIX), so a reader
  never sees a torn snapshot.  The file holds a bounded ring of the most
  recent :data:`DEFAULT_RING` snapshots, one JSON object per line, oldest
  first; per process at most :data:`MAX_RUN_FILES` run files are kept.

One run maps to one spool file ``run-<pid>-<n>.jsonl`` (``n`` is a
per-process run ordinal: pool workers execute many cells per process).
The spool directory defaults to ``$REPRO_SPOOL`` or
``<tempdir>/repro-spool``.
"""

from __future__ import annotations

import io
import json
import os
import re
import tempfile
import time
from collections import deque
from pathlib import Path
from typing import Dict, List, Optional

#: Version tag carried by every snapshot (heartbeat *and* crash dump).
#: v2 added the ``latency`` section: per-phase p50/p99/max timing
#: percentiles from the phase profiler (None when profiling is off).
#: v3 added the ``requests`` section: per-request latency/pause
#: attribution from request-structured workloads (None when the run is
#: unprofiled or the workload never brackets requests).
#: v4 added the ``compile`` section: the interpreter's always-on
#: compile-budget counters (methods compiled/codegenned/promoted, wall
#: ms per tier) — present even in unprofiled runs, None only before the
#: interpreter exists.
#: v5 dropped the section's ``methods_recompiled``, ``cache_hits`` and
#: ``cache_misses`` (the adaptive recompile and the on-disk codegen
#: cache are gone).
#: v6 dropped the section's ``methods_compiled`` and ``compile_ms`` (the
#: closure tier is gone; ``codegen_ms`` includes the link step).
#: v7 dropped the top-level ``allocator`` name (next-fit is the only
#: allocator).
#: v8 dropped the ``latency`` section: its per-phase percentiles came
#: from a window of at most 512 samples, so below 500 samples p999 was
#: the window's max.  Per-request percentiles over every request stay in
#: ``requests``.
SNAPSHOT_SCHEMA = "cg-snapshot/8"

#: Snapshots retained per run file (a ring: older beats roll off).
DEFAULT_RING = 16

#: Run files retained per process (pool workers run many cells).
MAX_RUN_FILES = 16

_RUN_FILE_RE = re.compile(r"^run-(\d+)-(\d+)\.jsonl$")


def default_spool_dir() -> Path:
    """``$REPRO_SPOOL`` or ``<tempdir>/repro-spool``."""
    env = os.environ.get("REPRO_SPOOL")
    if env:
        return Path(env)
    return Path(tempfile.gettempdir()) / "repro-spool"


def run_file_pid(path: "os.PathLike[str]") -> Optional[int]:
    """The pid encoded in a ``run-<pid>-<n>.jsonl`` name (None if not one)."""
    match = _RUN_FILE_RE.match(Path(path).name)
    return int(match.group(1)) if match else None


# ---------------------------------------------------------------------------
# Snapshot capture
# ---------------------------------------------------------------------------

def frame_stacks(runtime) -> List[Dict]:
    """Per-thread frame stacks (method, depth, CG block count per frame)."""
    stacks = []
    for thread in runtime.scheduler.threads:
        frames = []
        for frame in thread.stack.frames:
            method = frame.method
            frames.append({
                "frame_id": frame.frame_id,
                "depth": frame.depth,
                "method": (method.qualified_name
                           if method is not None else None),
                "blocks": len(frame.cg_blocks),
            })
        stacks.append({"thread": thread.name, "frames": frames})
    return stacks


def runtime_snapshot(runtime) -> Dict:
    """The schema shared by heartbeats and crash dumps.

    Read-only and tolerant: every section degrades to ``None`` when its
    subsystem is absent, so a snapshot can be taken from any state the
    runtime can reach (including mid-OOM).
    """
    data: Dict[str, object] = {
        "schema": SNAPSHOT_SCHEMA,
        "ops": runtime.ops,
        "heap": runtime.heap.occupancy(),
    }
    collector = runtime.collector
    data["equilive"] = (
        collector.block_census() if collector is not None else None
    )
    data["recycle"] = (
        collector.recycle.census() if collector is not None else None
    )
    data["frames"] = frame_stacks(runtime)
    stats = getattr(runtime, "fault_stats", None)
    data["fault_stats"] = dict(stats) if stats else {}
    profiler = getattr(runtime, "profiler", None)
    data["requests"] = (
        profiler.request_summary()
        if profiler is not None and profiler.enabled else None
    )
    # getattr, not the lazy property: a snapshot must never *create* the
    # interpreter (crash dumps can fire before the first instruction).
    interp = getattr(runtime, "_interpreter", None)
    data["compile"] = (
        {
            "methods_codegenned": interp.methods_codegenned,
            "methods_promoted": interp.methods_promoted,
            "codegen_ms": interp.codegen_seconds * 1000.0,
        }
        if interp is not None else None
    )
    return data


class LiveSnapshot:
    """One observation of an in-flight runtime, JSON-serializable.

    A generalization of the crash dump: the same base schema
    (:func:`runtime_snapshot`) plus heartbeat identity (``seq``, ``pid``,
    labels), the full :class:`~repro.obs.metrics.MetricsRegistry` dump,
    and advisory wall-clock fields.
    """

    def __init__(self, data: Dict) -> None:
        self.data = data

    def to_dict(self) -> Dict:
        return self.data

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.data, indent=indent, sort_keys=True,
                          default=str)

    def __repr__(self) -> str:
        return (f"<LiveSnapshot seq={self.data.get('seq')} "
                f"ops={self.data.get('ops')}>")

    @classmethod
    def capture(cls, runtime, *, seq: int = 0, phase: str = "live",
                labels: Optional[Dict] = None,
                uptime_s: Optional[float] = None,
                include_metrics: bool = True) -> "LiveSnapshot":
        data = runtime_snapshot(runtime)
        data["kind"] = "heartbeat"
        data["phase"] = phase
        data["seq"] = seq
        data["pid"] = os.getpid()
        data["labels"] = dict(labels or {})
        # Advisory only: never read back into the run.
        data["time"] = time.time()
        data["uptime_s"] = uptime_s
        if include_metrics:
            from .metrics import collect_runtime_metrics

            data["metrics"] = collect_runtime_metrics(runtime).to_dict()
        return cls(data)


# ---------------------------------------------------------------------------
# The heartbeat
# ---------------------------------------------------------------------------

_run_ordinal = 0


def _next_run_ordinal() -> int:
    global _run_ordinal
    _run_ordinal += 1
    return _run_ordinal


class Heartbeat:
    """Spools a bounded ring of :class:`LiveSnapshot` lines for one run.

    Owned by the :class:`~repro.jvm.runtime.Runtime` when
    ``RuntimeConfig(heartbeat_every=N)`` is armed; ``beat`` is invoked
    from the tick path, ``close`` by whoever drives the run (the
    :func:`repro.api.execute` facade) so even a run shorter than one
    period leaves a final snapshot behind.
    """

    def __init__(self, every: int, spool: Optional[str] = None,
                 ring: int = DEFAULT_RING,
                 labels: Optional[Dict] = None) -> None:
        self.every = int(every)
        self.ring = max(1, int(ring))
        self.labels = dict(labels or {})
        self.seq = 0
        self.pid = os.getpid()
        self.spool_dir = Path(spool) if spool else default_spool_dir()
        try:
            self.spool_dir.mkdir(parents=True, exist_ok=True)
        except OSError:
            # An unusable spool (read-only fs, bad path) degrades every
            # beat to a no-op; observability must never kill the run.
            pass
        self.path = self.spool_dir / (
            f"run-{self.pid}-{_next_run_ordinal()}.jsonl"
        )
        self._lines: deque = deque(maxlen=self.ring)
        self._started = time.perf_counter()
        self.closed = False
        self._prune_run_files()

    # -- spool hygiene --------------------------------------------------

    def _prune_run_files(self) -> None:
        """Keep at most :data:`MAX_RUN_FILES` run files for this pid."""
        mine = sorted(
            (p for p in self.spool_dir.glob(f"run-{self.pid}-*.jsonl")
             if _RUN_FILE_RE.match(p.name) and p != self.path),
            key=lambda p: int(_RUN_FILE_RE.match(p.name).group(2)),
        )
        for stale in mine[:max(0, len(mine) - (MAX_RUN_FILES - 1))]:
            try:
                stale.unlink()
            except OSError:
                pass

    # -- emission -------------------------------------------------------

    def beat(self, runtime, phase: str = "live") -> LiveSnapshot:
        """Capture and publish one snapshot (atomic rename)."""
        snapshot = LiveSnapshot.capture(
            runtime, seq=self.seq, phase=phase, labels=self.labels,
            uptime_s=time.perf_counter() - self._started,
        )
        self.seq += 1
        self._lines.append(snapshot.to_json())
        self._write()
        return snapshot

    def close(self, runtime) -> Optional[LiveSnapshot]:
        """Final beat (``phase="final"``).  Idempotent."""
        if self.closed:
            return None
        self.closed = True
        return self.beat(runtime, phase="final")

    def _write(self) -> None:
        tmp = self.path.with_suffix(".jsonl.tmp")
        buf = io.StringIO()
        for line in self._lines:
            buf.write(line)
            buf.write("\n")
        try:
            tmp.write_text(buf.getvalue(), encoding="utf-8")
            os.replace(tmp, self.path)
        except OSError:
            # Spool trouble (disk full, dir removed) must not kill the run.
            pass
