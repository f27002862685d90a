#!/usr/bin/env python3
"""A long-running server — the workload class the paper says CG suits best.

Chapter 4.2: "These results lead us to believe that our approach would be
useful in longer-running benchmarks and applications.  Servers and web
based servlets are examples of such programs that might benefit."

The servlet container itself now lives in the repo as the first-class
``server`` workload (``repro.workloads.server``): bytecode request
handlers, a static session cache with a configurable escape rate,
connection churn, and seeded arrival schedules.  This example is just a
thin driver: serve the same request stream under each system with
profiling armed and compare tail latency — the SLO framing of the
paper's claim that per-request garbage dies at frame-pop, so CG never
stops the world mid-request.

Run:  python examples/webserver.py [--requests N] [--pattern bursty]
      [--systems cg,jdk]
"""

import argparse

from repro.api import run


def ms(value, width=7):
    """A latency in milliseconds; ``-`` for a tail percentile that the
    request count cannot resolve (the run reports it as None)."""
    if value is None:
        return "-".rjust(width + 2)
    return f"{value:{width}.3f}ms"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--requests", type=int, default=400,
                        help="requests to serve per system (default 400)")
    parser.add_argument("--pattern", default="bursty",
                        choices=("steady", "bursty", "diurnal"),
                        help="arrival schedule shape (default bursty)")
    parser.add_argument("--systems", default="cg,jdk",
                        help="comma-separated systems (default cg,jdk)")
    args = parser.parse_args()

    systems = [s.strip() for s in args.systems.split(",") if s.strip()]
    print(f"Serving {args.requests} {args.pattern} requests "
          f"under {', '.join(systems)}...\n")

    results = []
    for system in systems:
        result = run("server", system=system, requests=args.requests,
                     params={"pattern": args.pattern}, profile=True)
        results.append(result)
        lat = result.latency or {}
        req_ms = lat.get("request_ms") or {}
        pause_ms = lat.get("pause_ms") or {}
        gc_cycles = result.gc_work.cycles
        popped = (result.cg_stats.objects_popped
                  if result.cg_stats is not None else 0)
        print(f"{system:12s} p50 {ms(req_ms.get('p50_ms'))}"
              f"  p99 {ms(req_ms.get('p99_ms'))}"
              f"  p999 {ms(req_ms.get('p999_ms'))}"
              f"  max {ms(req_ms.get('max_ms'))}"
              f"  | pause p99 {ms(pause_ms.get('p99_ms'), 6)}"
              f" ({lat.get('pause_share_pct', 0.0):4.1f}%)"
              f"  gc cycles {gc_cycles:3d}"
              f"  CG-popped {popped:5d}")

    if len(results) >= 2 and results[0].system == "cg":
        cg, other = results[0], results[1]
        saved = other.gc_work.cycles - cg.gc_work.cycles
        if saved > 0:
            print(f"\nCG eliminated {saved} of {other.gc_work.cycles} "
                  "collection pauses — per-request garbage never survives "
                  "the handler frame, so the heap simply doesn't fill "
                  "mid-request.")


if __name__ == "__main__":
    main()
