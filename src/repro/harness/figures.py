"""One generator per table/figure in the paper's evaluation (chapter 4 + appendix A).

Every function returns a :class:`~repro.harness.tables.Table` whose rows
mirror the paper's layout.  Results are cached per (workload, size, system)
so figures that share runs (most of them) don't recompute.

Naming: ``fig4_1`` reproduces Figure 4.1, ``figA_2`` Table A.2, etc.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

from ..api import RunResult, config_for, result_from_dict, result_to_dict
from ..api import run as api_run
from ..faults import (
    FaultPlan,
    FaultReport,
    QuarantinedCellError,
)
from ..workloads.base import SIZE_NAMES
from .tables import Table, pct

#: Benchmarks in the paper's table order (Fig. 4.1).
BENCH_ORDER = [
    "compress", "jess", "raytrace", "db", "javac", "mpegaudio", "mtrt", "jack",
]
#: The timing figures (4.7/4.8/4.10) omit mtrt, as the paper does.
TIMING_BENCHES = [b for b in BENCH_ORDER if b != "mtrt"]

_CACHE: Dict[Tuple, RunResult] = {}

#: Cells that exhausted their retries under the parallel harness; reading
#: one raises QuarantinedCellError instead of hanging or recomputing.
_QUARANTINE: Dict[Tuple, FaultReport] = {}

#: Disk cache directory (None disables).  Seeded from the environment so
#: subprocesses and CI jobs can opt in without CLI plumbing.
_RESULT_CACHE_DIR: Optional[Path] = (
    Path(os.environ["REPRO_RESULT_CACHE"])
    if os.environ.get("REPRO_RESULT_CACHE") else None
)

#: Ambient fault plan applied to every cell run through this module (set
#: by the CLI's --faults); workers receive a serialized copy.
_FAULT_PLAN: Optional[FaultPlan] = None


def set_fault_plan(plan: Optional[FaultPlan]) -> None:
    """Arm ``plan`` for all subsequent cached/prefetched runs (None disarms)."""
    global _FAULT_PLAN
    _FAULT_PLAN = plan


#: Ambient per-opcode counting flag (set by the CLI's ``--metrics``): cells
#: run with ``count_opcodes=True`` so the export carries ``vm.op.*``.
#: Observational only, but cached results would silently lack the histogram
#: — so the flag is part of the cell key without entering the fingerprint.
_COUNT_OPCODES = False


def set_opcode_counting(flag: bool) -> None:
    """Run subsequent cells with the per-opcode ``vm.op.*`` histogram."""
    global _COUNT_OPCODES
    _COUNT_OPCODES = bool(flag)


#: Ambient heartbeat settings (set by the CLI's --heartbeat-every/--spool):
#: every cell run through this module — sequentially or in a prefetch
#: worker — spools live snapshots for ``python -m repro inspect --fleet``.
#: Observational only and NOT part of the cell key: a cached cell never
#: re-runs just to heartbeat.
_HEARTBEAT_EVERY: Optional[int] = None
_HEARTBEAT_SPOOL: Optional[str] = None


def set_heartbeat(every: Optional[int], spool: Optional[str] = None) -> None:
    """Spool per-run heartbeats every ``every`` ops (None disarms)."""
    global _HEARTBEAT_EVERY, _HEARTBEAT_SPOOL
    _HEARTBEAT_EVERY = int(every) if every else None
    _HEARTBEAT_SPOOL = spool


def set_result_cache(path: Optional[str]) -> None:
    """Point the persistent result cache at ``path`` (None disables it)."""
    global _RESULT_CACHE_DIR
    _RESULT_CACHE_DIR = Path(path) if path else None


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
    The last element is the module's ambient opcode-counting flag.
    """
    config = config_for(system, heap_words or (1 << 20), gc_period_ops)
    config.faults = plan
    return (workload, size, system, gc_period_ops, heap_words,
            config.fingerprint(), _COUNT_OPCODES)


def _result_cache():
    """The pool's :class:`~repro.harness.pool.ResultCache` at the armed
    directory (so sequential cells and pool workers share its files), or
    ``None``.  Imported on use: the pool module loads multiprocessing,
    which a run without a result cache never needs."""
    if _RESULT_CACHE_DIR is None:
        return None
    from .pool import ResultCache

    return ResultCache(_RESULT_CACHE_DIR)


def _disk_load(key: Tuple) -> Optional[RunResult]:
    cache = _result_cache()
    data = cache.load(key) if cache is not None else None
    if data is None:
        return None
    try:
        return result_from_dict(data)
    except (ValueError, KeyError, TypeError):
        # Stale entry: recompute rather than fail.
        return None


def cached_run(workload: str, size: int, system: str,
               gc_period_ops: Optional[int] = None,
               heap_words: Optional[int] = None) -> RunResult:
    plan = _FAULT_PLAN
    key = cell_key(workload, size, system, gc_period_ops, heap_words, plan)
    if key in _QUARANTINE:
        raise QuarantinedCellError(key, _QUARANTINE[key])
    result = _CACHE.get(key)
    if result is None:
        result = _disk_load(key)
        if result is None:
            result = api_run(
                workload, size, system, gc_period_ops=gc_period_ops,
                heap_words=heap_words, faults=plan,
                count_opcodes=_COUNT_OPCODES,
                heartbeat_every=_HEARTBEAT_EVERY,
                heartbeat_spool=_HEARTBEAT_SPOOL,
            )
            cache = _result_cache()
            if cache is not None:
                cache.store(key, result_to_dict(result))
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
    _QUARANTINE.clear()


def quarantined() -> Dict[Tuple, FaultReport]:
    """Cells quarantined by the parallel harness, with their reports."""
    return dict(_QUARANTINE)


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


# ---------------------------------------------------------------------------
# Parallel prefetch
#
# The figure generators above are sequential by construction (each row pulls
# from the shared cache).  ``prefetch`` warms that cache by submitting the
# (workload, size, system) grid to the worker pool
# (:mod:`repro.harness.pool`) first, so a subsequent generator pass is pure
# cache hits.  Figures 4.12/4.13 depend on ``pressured_heap`` — a derived
# heap size read off the ``cg-nogc`` result — so prefetch runs in two waves:
# everything with a statically known config, then the pressured-heap cells.
# The pool owns timeouts and retries; this module translates cell keys to
# run requests and pool failures to :data:`_QUARANTINE` entries.
# ---------------------------------------------------------------------------

#: Cells each figure reads, as (system, sizes, benches) patterns.  Figures
#: absent here either need no prefetch (A.5-A.7 time uncached repeated
#: runs) or are handled by the pressured-heap second wave.
_FIGURE_CELLS: Dict[str, List[Tuple[str, Tuple[int, ...], List[str]]]] = {
    "4.1": [("cg-noopt-nogc", (1,), BENCH_ORDER), ("cg-nogc", (1,), BENCH_ORDER)],
    "4.2": [("cg-nogc", (1,), BENCH_ORDER)],
    "4.3": [("cg-nogc", (10,), BENCH_ORDER)],
    "4.4": [("cg-nogc", (100,), BENCH_ORDER)],
    "4.5": [("cg-nogc", (1,), BENCH_ORDER)],
    "4.6": [("cg-nogc", (1,), BENCH_ORDER)],
    "4.7": [(s, (1,), TIMING_BENCHES)
            for s in ("cg", "jdk", "cg-nogc", "jdk-nogc")],
    "4.8": [(s, (10,), TIMING_BENCHES)
            for s in ("cg", "jdk", "cg-nogc", "jdk-nogc")],
    "4.9": [("cg-nogc", (100,), BENCH_ORDER)],
    "4.10": [(s, (1, 10, 100), TIMING_BENCHES) for s in ("cg", "jdk")],
    "4.11": [("cg-reset", (1,), BENCH_ORDER)],
    "A.1": [("cg-nogc", (1,), BENCH_ORDER)],
    "A.2": [("cg-nogc", (1,), BENCH_ORDER)],
    "A.3": [("cg-nogc", (10,), BENCH_ORDER)],
    "A.4": [("cg-nogc", (100,), BENCH_ORDER)],
}

#: Figures whose runs need ``pressured_heap`` (second prefetch wave).
_PRESSURED_FIGURES: Dict[str, List[str]] = {
    "4.12": ["cg", "cg-recycle"],
    "4.13": ["cg-recycle"],
}


def _cell_id(key: Tuple) -> str:
    """Human-readable cell id (``workload:size:system``) for fault specs."""
    return f"{key[0]}:{key[1]}:{key[2]}"


def _request_for(key: Tuple) -> Dict:
    """The serialized run request for one cell key (the pool's wire form).

    key[6] is the parent's _COUNT_OPCODES flag (see cell_key): honouring
    it here keeps pool-computed cells interchangeable with sequential
    ones — a counting key always maps to a result carrying ``vm.op.*``.
    The ambient fault plan and heartbeat settings ride along the same
    way the old worker entry point received them.
    """
    workload, size, system, gc_period_ops, heap_words = key[:5]
    plan = _FAULT_PLAN
    return {
        "workload": workload,
        "size": size,
        "system": system,
        "gc_period_ops": gc_period_ops,
        "heap_words": heap_words,
        "count_opcodes": bool(key[6]),
        "heartbeat_every": _HEARTBEAT_EVERY,
        "heartbeat_spool": _HEARTBEAT_SPOOL,
        "faults": plan.to_dict() if plan is not None else None,
    }


def _spool_quarantine(key: Tuple, report: FaultReport) -> None:
    """Record a quarantined cell in the heartbeat spool (best effort).

    ``repro inspect --fleet`` picks these up so a grid watched from
    another process shows quarantine state, not just silent gaps.
    """
    if _HEARTBEAT_EVERY is None:
        return
    from ..obs.heartbeat import default_spool_dir
    spool = Path(_HEARTBEAT_SPOOL) if _HEARTBEAT_SPOOL else default_spool_dir()
    try:
        spool.mkdir(parents=True, exist_ok=True)
        cell = _cell_id(key).replace("/", "_").replace(":", "-")
        path = spool / f"quarantine-{cell}.json"
        tmp = path.with_suffix(".json.tmp")
        tmp.write_text(json.dumps({
            "cell": _cell_id(key),
            "site": report.site,
            "kind": report.kind,
            "message": report.message,
            "context": report.context,
        }, indent=2))
        os.replace(tmp, path)
    except OSError:
        pass


def _run_wave(keys: List[Tuple], jobs: int,
              cell_timeout: Optional[float] = None, retries: int = 2) -> None:
    """Fill the cache for ``keys``, running the misses on the worker pool.

    Fault tolerance belongs to the pool: each cell gets ``1 + retries``
    attempts (with exponential backoff between rounds) and at most
    ``cell_timeout`` seconds per attempt; a crashed worker is replaced
    and its cell retried.  A cell that exhausts its attempts comes back
    ``failed`` with a :class:`FaultReport` and is quarantined here, so
    the rest of the grid completes and readers get a structured error.
    No pool is created when every key is already in memory or on disk.
    """
    from .pool import get_shared_pool

    misses = []
    for key in keys:
        if key in _CACHE or key in _QUARANTINE:
            continue
        result = _disk_load(key)
        if result is not None:
            _CACHE[key] = result
        else:
            misses.append(key)
    if not misses:
        return
    pool_jobs = get_shared_pool(jobs).run(
        [_request_for(key) for key in misses],
        keys=misses, plan=_FAULT_PLAN,
        timeout=cell_timeout, retries=retries,
        cache_dir=str(_RESULT_CACHE_DIR) if _RESULT_CACHE_DIR else None,
    )
    for key, job in zip(misses, pool_jobs):
        if job.status == "done":
            _CACHE[key] = result_from_dict(job.result_dict)
        else:
            _QUARANTINE[key] = job.report
            _spool_quarantine(key, job.report)


def prefetch(figure_ids: Iterable[str], jobs: int,
             cell_timeout: Optional[float] = None, retries: int = 2) -> int:
    """Warm the run cache for ``figure_ids`` using ``jobs`` processes.

    Returns the number of cells ensured (cached, computed, or — when a
    fault plan sabotages workers — quarantined).  Unknown figure ids are
    ignored; generators themselves stay sequential.
    """
    plan = _FAULT_PLAN
    wanted = [f for f in figure_ids if f in ALL_FIGURES]
    wave1: List[Tuple] = []
    for fig in wanted:
        for system, sizes, benches in _FIGURE_CELLS.get(fig, []):
            for size in sizes:
                for name in benches:
                    wave1.append(cell_key(name, size, system, plan=plan))
        if fig in _PRESSURED_FIGURES:
            # The pressured-heap figures read the cg-nogc peak first.
            for name in BENCH_ORDER:
                wave1.append(cell_key(name, 1, "cg-nogc", plan=plan))
    wave1 = list(dict.fromkeys(wave1))
    _run_wave(wave1, jobs, cell_timeout=cell_timeout, retries=retries)

    wave2: List[Tuple] = []
    for fig in wanted:
        for system in _PRESSURED_FIGURES.get(fig, []):
            for name in BENCH_ORDER:
                try:
                    heap = pressured_heap(name, 1)
                except QuarantinedCellError:
                    continue  # its cg-nogc seed cell was quarantined
                wave2.append(
                    cell_key(name, 1, system, heap_words=heap, plan=plan)
                )
    wave2 = list(dict.fromkeys(wave2))
    _run_wave(wave2, jobs, cell_timeout=cell_timeout, retries=retries)
    return len(wave1) + len(wave2)
