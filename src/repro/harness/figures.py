"""One generator per table/figure in the paper's evaluation (chapter 4 + appendix A).

Every function returns a :class:`~repro.harness.tables.Table` whose rows
mirror the paper's layout.  Results are cached per (workload, size, system)
so figures that share runs (most of them) don't recompute.

Naming: ``fig4_1`` reproduces Figure 4.1, ``figA_2`` Table A.2, etc.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..api import RunResult, config_for
from ..api import run as api_run
from ..faults import FaultPlan
from ..workloads.base import SIZE_NAMES
from .tables import Table, pct

#: Benchmarks in the paper's table order (Fig. 4.1).
BENCH_ORDER = [
    "compress", "jess", "raytrace", "db", "javac", "mpegaudio", "mtrt", "jack",
]
#: The timing figures (4.7/4.8/4.10) omit mtrt, as the paper does.
TIMING_BENCHES = [b for b in BENCH_ORDER if b != "mtrt"]

_CACHE: Dict[Tuple, RunResult] = {}

#: Ambient fault plan applied to every cell run through this module (set
#: by the CLI's --faults).
_FAULT_PLAN: Optional[FaultPlan] = None


def set_fault_plan(plan: Optional[FaultPlan]) -> None:
    """Arm ``plan`` for all subsequent cached runs (None disarms)."""
    global _FAULT_PLAN
    _FAULT_PLAN = plan


#: Ambient heartbeat settings (set by the CLI's --heartbeat-every/--spool):
#: every cell run through this module spools live snapshots for
#: ``python -m repro inspect --fleet``.  Observational only and NOT part
#: of the cell key: a cached cell never re-runs just to heartbeat.
_HEARTBEAT_EVERY: Optional[int] = None
_HEARTBEAT_SPOOL: Optional[str] = None


def set_heartbeat(every: Optional[int], spool: Optional[str] = None) -> None:
    """Spool per-run heartbeats every ``every`` ops (None disarms)."""
    global _HEARTBEAT_EVERY, _HEARTBEAT_SPOOL
    _HEARTBEAT_EVERY = int(every) if every else None
    _HEARTBEAT_SPOOL = spool


def cell_key(workload: str, size: int, system: str,
             gc_period_ops: Optional[int] = None,
             heap_words: Optional[int] = None,
             plan: Optional[FaultPlan] = None) -> Tuple:
    """The cache key for one grid cell.

    Includes the full :meth:`RuntimeConfig.fingerprint` of the config the
    cell will run under (dispatch, CG policy, fault plan, ...),
    so a config change can never serve a stale cached result.  The heap
    size passed to ``config_for`` here is a placeholder: the fingerprint
    deliberately excludes ``heap_words``, which is its own key axis.
    """
    config = config_for(system, heap_words or (1 << 20), gc_period_ops)
    config.faults = plan
    return (workload, size, system, gc_period_ops, heap_words,
            config.fingerprint())


def cached_run(workload: str, size: int, system: str,
               gc_period_ops: Optional[int] = None,
               heap_words: Optional[int] = None) -> RunResult:
    plan = _FAULT_PLAN
    key = cell_key(workload, size, system, gc_period_ops, heap_words, plan)
    result = _CACHE.get(key)
    if result is None:
        result = api_run(
            workload, size, system, gc_period_ops=gc_period_ops,
            heap_words=heap_words, faults=plan,
            heartbeat_every=_HEARTBEAT_EVERY,
            heartbeat_spool=_HEARTBEAT_SPOOL,
        )
        _CACHE[key] = result
    return result


def pressured_heap(workload: str, size: int) -> int:
    """A heap just above the workload's peak live footprint.

    The recycling experiment (section 3.7) only exercises its code path
    once "the first attempt at allocation fails", so Figs. 4.12/4.13 run
    with the heap squeezed to ~112% of the measured live peak.
    """
    peak = cached_run(workload, size, "cg-nogc").peak_live_words
    return max(1024, int(peak * 1.02) + 64)


def clear_cache() -> None:
    _CACHE.clear()


def cached_results() -> List[RunResult]:
    """Every run executed (and cached) so far, in execution order.

    The CLI's ``--metrics`` export reads from here: one record per
    (workload, size, system) cell that generating the requested figures
    actually ran.
    """
    return list(_CACHE.values())


# ---------------------------------------------------------------------------
# Figure 4.1 — collectable objects, without and with the optimization
# ---------------------------------------------------------------------------

def fig4_1(size: int = 1) -> Table:
    """Percentage of objects collectable by CG, no-opt vs with-opt."""
    from ..workloads.base import get_workload

    table = Table(
        f"Fig 4.1 - Collectable objects (size {size})",
        ["benchmark", "description", "lines", "objects", "no opt", "with opt"],
    )
    for name in BENCH_ORDER:
        wl = get_workload(name)
        no_opt = cached_run(name, size, "cg-noopt-nogc")
        with_opt = cached_run(name, size, "cg-nogc")
        table.add_row(
            name,
            wl.description,
            wl.source_lines,
            with_opt.objects_created,
            pct(no_opt.collectable_pct),
            pct(with_opt.collectable_pct),
        )
    return table


# ---------------------------------------------------------------------------
# Figures 4.2/4.3/4.4 — static & thread-shared composition per size
# ---------------------------------------------------------------------------

def fig4_2_3_4(size: int) -> Table:
    """Percentage static / thread-shared / collectable (one figure per size)."""
    number = {1: "4.2", 10: "4.3", 100: "4.4"}[size]
    table = Table(
        f"Fig {number} - Object population (size {size}, {SIZE_NAMES[size]})",
        ["benchmark", "collectable", "static", "thread-shared"],
    )
    for name in BENCH_ORDER:
        r = cached_run(name, size, "cg-nogc")
        table.add_row(
            name, pct(r.collectable_pct), pct(r.static_pct), pct(r.thread_pct)
        )
    return table


# ---------------------------------------------------------------------------
# Figure 4.5 — distribution of equilive block sizes
# ---------------------------------------------------------------------------

def fig4_5(size: int = 1) -> Table:
    table = Table(
        f"Fig 4.5 - Distribution of block sizes (size {size})",
        ["benchmark", "total collectable", "1", "2", "3", "4", "5",
         "6-10", ">10", "percent exact"],
    )
    for name in BENCH_ORDER:
        r = cached_run(name, size, "cg-nogc")
        buckets = r.cg_stats.block_size_buckets()
        table.add_row(
            name,
            r.census["popped"],
            buckets["1"], buckets["2"], buckets["3"], buckets["4"],
            buckets["5"], buckets["6-10"], buckets[">10"],
            pct(r.exact_pct),
        )
    return table


# ---------------------------------------------------------------------------
# Figure 4.6 — age at death (frame distance)
# ---------------------------------------------------------------------------

def fig4_6(size: int = 1) -> Table:
    table = Table(
        f"Fig 4.6 - Age at death of objects we collect (size {size})",
        ["benchmark", "0", "1", "2", "3", "4", "5", ">5"],
    )
    for name in BENCH_ORDER:
        r = cached_run(name, size, "cg-nogc")
        buckets = r.cg_stats.age_buckets()
        table.add_row(
            name,
            buckets["0"], buckets["1"], buckets["2"], buckets["3"],
            buckets["4"], buckets["5"], buckets[">5"],
        )
    return table


# ---------------------------------------------------------------------------
# Figures 4.7/4.8 — timing, CG vs JDK (sizes 1 and 10)
# ---------------------------------------------------------------------------

def fig4_7(size: int = 1) -> Table:
    number = {1: "4.7", 10: "4.8"}[size]
    table = Table(
        f"Fig {number} - Timing results (size {size}, simulated ms)",
        ["benchmark", "CG", "JDK", "speedup", "overhead-only speedup"],
    )
    for name in TIMING_BENCHES:
        cg = cached_run(name, size, "cg")
        jdk = cached_run(name, size, "jdk")
        cg_nogc = cached_run(name, size, "cg-nogc")
        jdk_nogc = cached_run(name, size, "jdk-nogc")
        speedup = jdk.sim_ms / cg.sim_ms if cg.sim_ms else 0.0
        overhead = (
            jdk_nogc.sim_ms / cg_nogc.sim_ms if cg_nogc.sim_ms else 0.0
        )
        table.add_row(
            name, round(cg.sim_ms, 2), round(jdk.sim_ms, 2),
            round(speedup, 2), round(overhead, 2),
        )
    return table


def fig4_8() -> Table:
    return fig4_7(size=10)


# ---------------------------------------------------------------------------
# Figure 4.9 — large runs
# ---------------------------------------------------------------------------

def fig4_9() -> Table:
    table = Table(
        "Fig 4.9 - SPEC benchmarks, large runs (size 100)",
        ["name", "objects created", "collectable with opt", "exactly collectable"],
    )
    for name in BENCH_ORDER:
        r = cached_run(name, 100, "cg-nogc")
        table.add_row(
            name, r.objects_created, pct(r.collectable_pct), pct(r.exact_pct)
        )
    return table


# ---------------------------------------------------------------------------
# Figure 4.10 — speedups across sizes
# ---------------------------------------------------------------------------

def fig4_10(sizes: Tuple[int, ...] = (1, 10, 100)) -> Table:
    table = Table(
        "Fig 4.10 - Speedup of CG over JDK per size",
        ["benchmark"] + [f"size {s}" for s in sizes],
    )
    for name in TIMING_BENCHES:
        cells: List[object] = [name]
        for size in sizes:
            cg = cached_run(name, size, "cg")
            jdk = cached_run(name, size, "jdk")
            cells.append(round(jdk.sim_ms / cg.sim_ms, 2) if cg.sim_ms else 0.0)
        table.add_row(*cells)
    return table


# ---------------------------------------------------------------------------
# Figure 4.11 — resetting results
# ---------------------------------------------------------------------------

def fig4_11(size: int = 1, gc_period_ops: Optional[int] = None) -> Table:
    table = Table(
        f"Fig 4.11 - Resetting results (size {size}, periodic MSA)",
        ["name", "collected by MSA", "less live", "GC cycles"],
    )
    for name in BENCH_ORDER:
        r = cached_run(name, size, "cg-reset", gc_period_ops=gc_period_ops)
        table.add_row(
            name,
            r.cg_stats.collected_by_msa,
            r.cg_stats.less_live,
            r.gc_work.cycles,
        )
    return table


# ---------------------------------------------------------------------------
# Figures 4.12/4.13 — recycling
# ---------------------------------------------------------------------------

def fig4_12(size: int = 1) -> Table:
    table = Table(
        f"Fig 4.12 - Recycle timing (size {size}, simulated ms)",
        ["name", "CG time", "CG with recycling", "speedup using recycling"],
    )
    for name in BENCH_ORDER:
        heap = pressured_heap(name, size)
        cg = cached_run(name, size, "cg", heap_words=heap)
        rec = cached_run(name, size, "cg-recycle", heap_words=heap)
        speedup = cg.sim_ms / rec.sim_ms if rec.sim_ms else 0.0
        table.add_row(
            name, round(cg.sim_ms, 2), round(rec.sim_ms, 2), round(speedup, 2)
        )
    return table


def fig4_13(size: int = 1) -> Table:
    table = Table(
        f"Fig 4.13 - Number of objects recycled (size {size})",
        ["name", "objects recycled", "percent of total"],
    )
    for name in BENCH_ORDER:
        r = cached_run(
            name, size, "cg-recycle", heap_words=pressured_heap(name, size)
        )
        recycled = r.cg_stats.objects_recycled
        share = 100.0 * recycled / r.objects_created if r.objects_created else 0
        table.add_row(name, recycled, f"{share:.2f}")
    return table


# ---------------------------------------------------------------------------
# Appendix A tables
# ---------------------------------------------------------------------------

def figA_1(size: int = 1) -> Table:
    table = Table(
        f"Tab A.1 - Static objects due to thread sharing (size {size})",
        ["benchmark", "total static objects", "percent due to threads"],
    )
    for name in BENCH_ORDER:
        r = cached_run(name, size, "cg-nogc")
        static_total = r.census["static"] + r.census["thread"]
        share = (
            100.0 * r.census["thread"] / static_total if static_total else 0.0
        )
        table.add_row(name, static_total, pct(share))
    return table


def figA_2_3_4(size: int) -> Table:
    number = {1: "A.2", 10: "A.3", 100: "A.4"}[size]
    table = Table(
        f"Tab {number} - Object breakdown ({SIZE_NAMES[size]} runs)",
        ["benchmark", "popped", "static", "thread"],
    )
    for name in BENCH_ORDER:
        r = cached_run(name, size, "cg-nogc")
        table.add_row(
            name, r.census["popped"], r.census["static"], r.census["thread"]
        )
    return table


def figA_5_6_7(size: int, repetitions: int = 5) -> Table:
    """Raw per-run timings (the appendix lists 5 repetitions per benchmark).

    The simulated cost is deterministic, so the five rows per benchmark
    report wall-clock seconds of repeated real runs plus the (constant)
    simulated ms — mirroring the appendix's layout of repeated raw rows.
    """
    number = {1: "A.5", 10: "A.6", 100: "A.7"}[size]
    table = Table(
        f"Tab {number} - SPEC benchmarks, {SIZE_NAMES[size]} runs (raw)",
        ["benchmark", "CG (sim ms)", "JDK (sim ms)", "CG wall s", "JDK wall s"],
    )
    for name in BENCH_ORDER:
        for _ in range(repetitions):
            cg = api_run(name, size, "cg")
            jdk = api_run(name, size, "jdk")
            table.add_row(
                name, round(cg.sim_ms, 3), round(jdk.sim_ms, 3),
                round(cg.wall_seconds, 4), round(jdk.wall_seconds, 4),
            )
    return table


#: Registry used by the CLI and EXPERIMENTS generator.
ALL_FIGURES = {
    "4.1": lambda: fig4_1(1),
    "4.2": lambda: fig4_2_3_4(1),
    "4.3": lambda: fig4_2_3_4(10),
    "4.4": lambda: fig4_2_3_4(100),
    "4.5": lambda: fig4_5(1),
    "4.6": lambda: fig4_6(1),
    "4.7": lambda: fig4_7(1),
    "4.8": lambda: fig4_8(),
    "4.9": lambda: fig4_9(),
    "4.10": lambda: fig4_10(),
    "4.11": lambda: fig4_11(1),
    "4.12": lambda: fig4_12(1),
    "4.13": lambda: fig4_13(1),
    "A.1": lambda: figA_1(1),
    "A.2": lambda: figA_2_3_4(1),
    "A.3": lambda: figA_2_3_4(10),
    "A.4": lambda: figA_2_3_4(100),
    "A.5": lambda: figA_5_6_7(1, repetitions=3),
    "A.6": lambda: figA_5_6_7(10, repetitions=3),
    "A.7": lambda: figA_5_6_7(100, repetitions=2),
}
