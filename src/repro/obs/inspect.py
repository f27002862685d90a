"""``python -m repro inspect`` — render live state of in-flight runs.

Reads the heartbeat spool written by :mod:`repro.obs.heartbeat` and
renders it, from a *different* process than the one running the VM — the
out-of-process inspection capability CPython grew for remote frame-stack
reading, here built on spooled snapshots instead of memory peeking (the
snapshots already carry the frame stacks).

Three views:

* ``repro inspect PID`` / ``repro inspect PATH`` — the latest snapshot of
  one run: heap occupancy, equilive block census, recycle census, frame
  stacks, headline metrics.  ``--watch`` polls and re-renders whenever a
  new snapshot lands (``--count N`` stops after N renders).
* ``repro inspect`` / ``repro inspect --fleet [DIR]`` — a grid-wide
  rollup over every run file in the spool: per-cell progress (labels,
  seq, ops, heap pressure, live/done/stale) and aggregate heap pressure.
* ``--json`` on either view emits the structured form instead of text.

Everything here is read-only and tolerant: a torn line, a file pruned
mid-read, or an empty spool renders as "no data", never a traceback.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from .heartbeat import default_spool_dir, run_file_pid

#: A run whose spool went quiet for this many seconds is presumed dead
#: (crashed or stopped without a final beat).  Advisory, like all
#: wall-clock handling here.
DEFAULT_STALE_AFTER = 10.0


# ---------------------------------------------------------------------------
# Spool reading
# ---------------------------------------------------------------------------

def read_snapshots(path: "os.PathLike[str]") -> List[Dict]:
    """Every parseable snapshot in a run file, oldest first.

    Tolerates a missing file (pruned between listing and reading) and
    torn/partial lines (the writer is atomic, but be lenient anyway).
    """
    snapshots: List[Dict] = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except ValueError:
                    continue
                if isinstance(record, dict):
                    snapshots.append(record)
    except OSError:
        return []
    return snapshots


def latest_snapshot(path: "os.PathLike[str]") -> Optional[Dict]:
    snapshots = read_snapshots(path)
    return snapshots[-1] if snapshots else None


def discover_runs(spool: Path) -> List[Path]:
    """All run files in the spool, most recently modified last."""
    try:
        runs = [p for p in spool.glob("run-*.jsonl")
                if run_file_pid(p) is not None]
    except OSError:
        return []
    def mtime(p: Path) -> float:
        try:
            return p.stat().st_mtime
        except OSError:
            return 0.0
    return sorted(runs, key=mtime)


def resolve_target(target: str, spool: Path) -> Optional[Path]:
    """Map a PID or path argument to one run file (newest wins for PIDs)."""
    if target.isdigit():
        pid = int(target)
        mine = [p for p in discover_runs(spool) if run_file_pid(p) == pid]
        return mine[-1] if mine else None
    path = Path(target)
    if path.is_file():
        return path
    return None


# ---------------------------------------------------------------------------
# Single-run rendering
# ---------------------------------------------------------------------------

def _cell_of(snapshot: Dict) -> str:
    labels = snapshot.get("labels") or {}
    if {"workload", "size", "system"} <= set(labels):
        return f"{labels['workload']}:{labels['size']}:{labels['system']}"
    return "?"


def _top_counters(snapshot: Dict, n: int = 6) -> List[Tuple[str, int]]:
    counters = (snapshot.get("metrics") or {}).get("counters") or {}
    wanted = ("cg.objects_popped", "cg.objects_created", "cg.union_events",
              "gc.cycles", "gc.objects_collected", "alloc.search_steps")
    picked = [(k, int(counters[k])) for k in wanted if k in counters]
    return picked[:n]


def _ms(value: Optional[float]) -> str:
    """A latency in milliseconds, or ``-`` for a percentile too far in
    the tail for the sample count to resolve (reported as None)."""
    return f"{value:.3f}ms" if value is not None else "-"


def render_snapshot(snapshot: Dict, path: Optional[Path] = None) -> str:
    """One run's latest state as terminal text."""
    heap = snapshot.get("heap") or {}
    lines = []
    uptime = snapshot.get("uptime_s")
    lines.append(
        f"run pid={snapshot.get('pid', '?')} cell={_cell_of(snapshot)}"
        f" seq={snapshot.get('seq', '?')} phase={snapshot.get('phase', '?')}"
        f" ops={snapshot.get('ops', '?')}"
        + (f" uptime={uptime:.2f}s" if isinstance(uptime, (int, float))
           else "")
        + (f"  [{path}]" if path is not None else "")
    )
    if heap:
        cap = heap.get("capacity_words", 0) or 0
        live = heap.get("live_words", 0) or 0
        occupancy = 100.0 * heap.get("occupancy", 0.0)
        lines.append(
            f"  heap: {occupancy:5.1f}% occupied"
            f" ({int(live)}/{int(cap)} words,"
            f" peak {int(heap.get('peak_live_words', 0))},"
            f" frag {heap.get('fragmentation', 0.0):.2f},"
            f" {int(heap.get('live_objects', 0))} objects)"
        )
    equilive = snapshot.get("equilive")
    recycle = snapshot.get("recycle")
    if equilive:
        lines.append(
            f"  blocks: {equilive.get('blocks', 0)} live"
            f" ({equilive.get('static_blocks', 0)} static,"
            f" largest {equilive.get('largest_block', 0)},"
            f" {equilive.get('live_objects', 0)} objects)"
            + (f" · recycle: {recycle.get('parked_objects', 0)} parked"
               f" ({recycle.get('parked_words', 0)} words)"
               if recycle else "")
        )
    for stack in snapshot.get("frames") or []:
        frames = stack.get("frames") or []
        trail = " > ".join(
            str(f.get("method") or f"frame#{f.get('frame_id')}")
            for f in frames[-4:]
        )
        lines.append(
            f"  thread {stack.get('thread', '?')}: depth {len(frames)}"
            + (f" — {trail}" if trail else " — idle")
        )
    fault_stats = snapshot.get("fault_stats") or {}
    if fault_stats:
        folded = ", ".join(f"{k}={v}" for k, v in sorted(fault_stats.items()))
        lines.append(f"  faults: {folded}")
    requests = snapshot.get("requests") or {}
    if requests:
        req_ms = requests.get("request_ms") or {}
        pause_ms = requests.get("pause_ms") or {}
        lines.append(
            f"  requests: {requests.get('requests', 0)} served"
            f" — p50 {_ms(req_ms.get('p50_ms'))}"
            f" p99 {_ms(req_ms.get('p99_ms'))}"
            f" p999 {_ms(req_ms.get('p999_ms'))}"
            f" max {_ms(req_ms.get('max_ms'))}"
            f" · pause p99 {_ms(pause_ms.get('p99_ms'))}"
            f" ({requests.get('pause_share_pct', 0.0):.1f}% of request time)"
        )
    top = _top_counters(snapshot)
    if top:
        lines.append(
            "  metrics: " + ", ".join(f"{k}={v}" for k, v in top)
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Fleet rollup
# ---------------------------------------------------------------------------

def fleet_rollup(spool: Path,
                 stale_after: float = DEFAULT_STALE_AFTER) -> Dict:
    """Grid-wide view over every run file in the spool directory."""
    runs: List[Dict] = []
    now = time.time()
    for path in discover_runs(spool):
        snapshot = latest_snapshot(path)
        if snapshot is None:
            continue
        try:
            age = max(0.0, now - path.stat().st_mtime)
        except OSError:
            age = 0.0
        if snapshot.get("phase") == "final":
            status = "done"
        elif age > stale_after:
            status = "stale"
        else:
            status = "live"
        heap = snapshot.get("heap") or {}
        runs.append({
            "path": str(path),
            "pid": snapshot.get("pid", run_file_pid(path)),
            "cell": _cell_of(snapshot),
            "labels": snapshot.get("labels") or {},
            "seq": snapshot.get("seq"),
            "ops": snapshot.get("ops"),
            "phase": snapshot.get("phase"),
            "status": status,
            "age_s": round(age, 3),
            "heap_live_words": heap.get("live_words", 0.0),
            "heap_capacity_words": heap.get("capacity_words", 0.0),
            "heap_occupancy": heap.get("occupancy", 0.0),
        })
    active = [r for r in runs if r["status"] != "done"]
    live_words = sum(r["heap_live_words"] for r in active)
    capacity = sum(r["heap_capacity_words"] for r in active)
    return {
        "spool": str(spool),
        "runs": runs,
        "aggregate": {
            "runs": len(runs),
            "live": sum(1 for r in runs if r["status"] == "live"),
            "done": sum(1 for r in runs if r["status"] == "done"),
            "stale": sum(1 for r in runs if r["status"] == "stale"),
            "workers": sorted({r["pid"] for r in runs
                               if r["pid"] is not None}),
            "live_words": live_words,
            "capacity_words": capacity,
            "heap_pressure": (live_words / capacity) if capacity else 0.0,
        },
    }


def render_fleet(rollup: Dict) -> str:
    agg = rollup["aggregate"]
    lines = [
        f"fleet: {agg['runs']} run(s) in {rollup['spool']}"
        f" — {agg['live']} live, {agg['done']} done, {agg['stale']} stale,"
        f" {len(agg['workers'])} worker(s)"
    ]
    if rollup["runs"]:
        header = (f"  {'cell':24} {'pid':>7} {'seq':>5} {'ops':>10}"
                  f" {'heap%':>6} {'status':>6}")
        lines.append(header)
        for run in rollup["runs"]:
            lines.append(
                f"  {run['cell']:24} {str(run['pid']):>7}"
                f" {str(run['seq']):>5} {str(run['ops']):>10}"
                f" {100.0 * (run['heap_occupancy'] or 0.0):6.1f}"
                f" {run['status']:>6}"
            )
    if agg["capacity_words"]:
        lines.append(
            f"  aggregate heap pressure:"
            f" {int(agg['live_words'])}/{int(agg['capacity_words'])} words"
            f" ({100.0 * agg['heap_pressure']:.1f}%) over active runs"
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro inspect",
        description="Render live heartbeat snapshots of in-flight runs.",
    )
    parser.add_argument(
        "target", nargs="?",
        help="a PID (latest run of that process) or a spool file path; "
             "omitted = fleet view of the spool directory",
    )
    parser.add_argument(
        "--spool", metavar="DIR", default=None,
        help="spool directory (default: $REPRO_SPOOL or <tmp>/repro-spool)",
    )
    parser.add_argument(
        "--fleet", action="store_true",
        help="force the grid-wide rollup view",
    )
    parser.add_argument(
        "--json", action="store_true", dest="as_json",
        help="emit the structured form instead of text",
    )
    parser.add_argument(
        "--watch", action="store_true",
        help="poll and re-render when a new snapshot lands",
    )
    parser.add_argument(
        "--interval", type=float, default=0.5, metavar="S",
        help="--watch poll interval in seconds (default 0.5)",
    )
    parser.add_argument(
        "--count", type=int, default=None, metavar="N",
        help="stop --watch after N renders (default: until interrupted)",
    )
    parser.add_argument(
        "--timeout", type=float, default=30.0, metavar="S",
        help="--watch gives up after S seconds with no new snapshot "
             "(default 30)",
    )
    parser.add_argument(
        "--stale-after", type=float, default=DEFAULT_STALE_AFTER,
        metavar="S",
        help="fleet view marks runs quiet for S seconds as stale "
             f"(default {DEFAULT_STALE_AFTER:g})",
    )
    return parser


def _emit_single(path: Path, as_json: bool) -> bool:
    snapshot = latest_snapshot(path)
    if snapshot is None:
        return False
    if as_json:
        print(json.dumps(snapshot, sort_keys=True))
    else:
        print(render_snapshot(snapshot, path=path))
    return True


def _watch_single(target: str, spool: Path, args) -> int:
    """Poll ``target``, rendering each time a new (path, seq) appears."""
    rendered = 0
    last: Optional[Tuple[str, object]] = None
    deadline = time.time() + args.timeout
    while args.count is None or rendered < args.count:
        path = resolve_target(target, spool)
        snapshot = latest_snapshot(path) if path is not None else None
        if snapshot is not None:
            key = (str(path), snapshot.get("seq"))
            if key != last:
                last = key
                rendered += 1
                if args.as_json:
                    print(json.dumps(snapshot, sort_keys=True), flush=True)
                else:
                    print(render_snapshot(snapshot, path=path), flush=True)
                deadline = time.time() + args.timeout
                continue
        if time.time() > deadline:
            print(f"[inspect] no new snapshot for {args.timeout:g}s; "
                  f"giving up", file=sys.stderr)
            return 0 if rendered else 1
        time.sleep(args.interval)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    spool = Path(args.spool) if args.spool else default_spool_dir()

    fleet = args.fleet or args.target is None or (
        not str(args.target).isdigit() and Path(args.target).is_dir()
    )
    if fleet:
        spool_arg = args.target if (
            args.target and Path(args.target).is_dir()
        ) else spool
        count = 0
        while True:
            rollup = fleet_rollup(Path(spool_arg),
                                  stale_after=args.stale_after)
            if args.as_json:
                print(json.dumps(rollup, sort_keys=True), flush=True)
            else:
                print(render_fleet(rollup), flush=True)
            count += 1
            if not args.watch or (args.count is not None
                                  and count >= args.count):
                return 0
            time.sleep(args.interval)

    if args.watch:
        return _watch_single(args.target, spool, args)

    path = resolve_target(args.target, spool)
    if path is None:
        print(f"[inspect] no spool file for {args.target!r} under {spool}",
              file=sys.stderr)
        return 1
    if not _emit_single(path, args.as_json):
        print(f"[inspect] no parseable snapshot in {path}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
