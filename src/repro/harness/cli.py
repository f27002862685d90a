"""Command-line entry point: print any figure/table from the paper.

Usage::

    python -m repro.harness.cli 4.1 4.5        # specific figures
    python -m repro.harness.cli --all           # everything (slow: large runs)
    python -m repro.harness.cli --small         # everything size-1 only
    python -m repro.harness.cli --list

Observability::

    python -m repro.harness.cli --trace out.jsonl 4.1   # trace the runs
    python -m repro.harness.cli trace-summary out.jsonl # recount from trace
    python -m repro.harness.cli --metrics out.json 4.1  # per-run metrics
    python -m repro.harness.cli --heartbeat-every 5000 --spool spool/ 4.2
"""

from __future__ import annotations

import argparse
import json
import sys

from ..obs.events import Tracer, read_trace, summarize, tracing_to, write_trace
from . import figures as figures_mod
from .figures import ALL_FIGURES

SMALL_FIGURES = ["4.1", "4.2", "4.5", "4.6", "4.7", "4.11", "4.12", "4.13",
                 "A.1", "A.2"]


def trace_summary_main(argv) -> int:
    """``trace-summary PATH``: recompute a run's counters from its trace."""
    parser = argparse.ArgumentParser(
        prog="repro.harness.cli trace-summary",
        description="Summarize a JSONL event trace written by --trace.",
    )
    parser.add_argument("path", help="trace file (JSONL)")
    args = parser.parse_args(argv)
    try:
        meta, events = read_trace(args.path)
    except OSError as exc:
        print(f"cannot read trace: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError) as exc:
        print(f"not a JSONL event trace: {args.path} ({exc})", file=sys.stderr)
        return 2
    complete = int(meta.get("dropped", 0)) == 0
    print(summarize(events, complete=complete).render())
    return 0


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv and argv[0] == "trace-summary":
        return trace_summary_main(argv[1:])

    parser = argparse.ArgumentParser(
        prog="repro.harness.cli",
        description="Regenerate tables/figures from 'Contaminated Garbage Collection'.",
    )
    parser.add_argument("figures", nargs="*", help="figure ids, e.g. 4.1 A.2")
    parser.add_argument("--all", action="store_true", help="every figure")
    parser.add_argument(
        "--small", action="store_true", help="all size-1 figures (fast)"
    )
    parser.add_argument("--list", action="store_true", help="list figure ids")
    parser.add_argument(
        "--trace", metavar="PATH",
        help="record collector/VM events during the runs and write JSONL",
    )
    parser.add_argument(
        "--trace-capacity", type=int, default=None, metavar="N",
        help="ring-buffer capacity for --trace (default ~1M events)",
    )
    parser.add_argument(
        "--metrics", metavar="PATH",
        help="write one metrics record per executed run as JSON",
    )
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="prefetch the (workload, size, system) grid with N worker "
             "processes before generating tables (default: 1, sequential)",
    )
    parser.add_argument(
        "--result-cache", metavar="DIR",
        help="persist per-cell run results as JSON under DIR and reuse them "
             "across invocations (also: REPRO_RESULT_CACHE env var)",
    )
    parser.add_argument(
        "--faults", metavar="SPEC",
        help="arm a deterministic fault plan for every run, e.g. "
             "'heap.alloc:oom:after=1000' or "
             "'harness.worker:crash:cell=jess:count=inf' "
             "(';'-separated specs; see repro.faults)",
    )
    parser.add_argument(
        "--cell-timeout", type=float, default=None, metavar="SECONDS",
        help="per-cell wall-clock timeout for --jobs prefetch workers; a "
             "cell that times out is retried, then quarantined",
    )
    parser.add_argument(
        "--retries", type=int, default=2, metavar="N",
        help="extra attempts per failing/hanging cell before quarantine "
             "(default: 2)",
    )
    parser.add_argument(
        "--heartbeat-every", type=int, default=None, metavar="OPS",
        help="spool a live snapshot of every run each OPS executed "
             "opcodes; inspect in-flight with 'python -m repro inspect'",
    )
    parser.add_argument(
        "--spool", metavar="DIR",
        help="heartbeat spool directory (default: $REPRO_SPOOL or the "
             "system temp dir)",
    )
    args = parser.parse_args(argv)

    if args.result_cache:
        figures_mod.set_result_cache(args.result_cache)

    if args.heartbeat_every is not None and args.heartbeat_every < 1:
        print("bad --heartbeat-every: must be >= 1", file=sys.stderr)
        return 2
    # Process-global and observational only (never part of a cell key);
    # set unconditionally so repeated main() calls in one process (tests)
    # cannot leak a stale heartbeat setting.
    figures_mod.set_heartbeat(args.heartbeat_every, args.spool)

    if args.faults:
        try:
            plan = figures_mod.FaultPlan.parse(args.faults)
        except ValueError as exc:
            print(f"bad --faults spec: {exc}", file=sys.stderr)
            return 2
        figures_mod.set_fault_plan(plan)

    if args.list:
        for fig_id in ALL_FIGURES:
            print(fig_id)
        return 0

    wanted = list(args.figures)
    if args.all:
        wanted = list(ALL_FIGURES)
    elif args.small and not wanted:
        wanted = list(SMALL_FIGURES)
    if not wanted:
        parser.print_help()
        return 2

    unknown = [f for f in wanted if f not in ALL_FIGURES]
    if unknown:
        print(f"unknown figure id(s): {unknown}; use --list", file=sys.stderr)
        return 2

    tracer = None
    if args.trace:
        tracer = (
            Tracer(args.trace_capacity) if args.trace_capacity else Tracer()
        )

    def generate() -> None:
        # A quarantined cell sinks only the figures that read it; the rest
        # of the grid still prints, and the skip is reported on stderr.
        for fig_id in wanted:
            try:
                print(ALL_FIGURES[fig_id]())
            except figures_mod.QuarantinedCellError as exc:
                print(
                    f"[quarantine] figure {fig_id} skipped: "
                    f"cell {exc.cell_id} is quarantined "
                    f"({exc.report.kind if exc.report else 'unknown fault'})",
                    file=sys.stderr,
                )
            print()

    if args.jobs > 1 and tracer is None:
        # Warm the shared run cache in parallel; the generators then hit it.
        # Skipped under --trace: worker processes would not see the tracer.
        cells = figures_mod.prefetch(
            wanted, args.jobs,
            cell_timeout=args.cell_timeout, retries=args.retries,
        )
        print(
            f"[prefetch] {cells} cells warmed with {args.jobs} jobs",
            file=sys.stderr,
        )
    elif args.jobs > 1:
        print("[prefetch] skipped: incompatible with --trace", file=sys.stderr)

    if tracer is not None:
        with tracing_to(tracer):
            generate()
        written = write_trace(args.trace, tracer)
        status = "complete" if tracer.complete else (
            f"ring overflowed, {tracer.dropped} oldest events dropped"
        )
        print(
            f"[trace] {written} events -> {args.trace} ({status})",
            file=sys.stderr,
        )
    else:
        generate()

    quarantined = figures_mod.quarantined()
    if quarantined:
        print(
            f"[quarantine] {len(quarantined)} cell(s) quarantined:",
            file=sys.stderr,
        )
        for key, report in sorted(quarantined.items(), key=lambda kv: kv[0][:3]):
            print(
                f"[quarantine]   {key[0]}:{key[1]}:{key[2]} -> "
                f"{report.site}/{report.kind}: {report.message}",
                file=sys.stderr,
            )

    if args.metrics:
        records = [
            {
                "workload": result.workload,
                "size": result.size,
                "system": result.system,
                "heap_words": result.heap_words,
                "wall_seconds": result.wall_seconds,
                "metrics": result.metrics,
            }
            for result in figures_mod.cached_results()
        ]
        with open(args.metrics, "w", encoding="utf-8") as fh:
            json.dump(records, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(
            f"[metrics] {len(records)} run records -> {args.metrics}",
            file=sys.stderr,
        )
    return 0


if __name__ == "__main__":
    try:
        code = main()
    except BrokenPipeError:  # e.g. `... trace-summary f | head`
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 0
    raise SystemExit(code)
