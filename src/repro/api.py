"""The stable programmatic entry surface: one way to run one cell.

Historically the figure runner, the parallel prefetch worker, and the
bench harness each built their Runtime+Collector with a near-copy of the
same code.  This module is now the single construction path:

* :func:`run` — ``run(workload, size, system, ...) -> RunResult`` — is
  what the runner shim, the figure cache, the bench harness, and the CLI
  all call.
* :class:`RunRequest` is the explicit form of the same call; :func:`run`
  is sugar over ``execute(RunRequest(...))``.
* :func:`config_for` maps a named *system* (the paper's comparison
  configurations, table below) to a :class:`RuntimeConfig`.

A *system* is one of the named configurations the paper compares:

==============  ==============================================================
``cg``          CG (with the section 3.4 optimization) + mark-sweep backup —
                the paper's preferred system
``cg-noopt``    CG without the optimization (Fig. 4.1's left column)
``cg-recycle``  CG + the section 3.7 recycling free list (Figs. 4.12/4.13)
``cg-recycle-typed``  the chapter 6 extension: recycling indexed by
                (class, size) for O(1) same-type reuse
``cg-reset``    CG + the section 3.6 reset pass, MSA forced periodically
``cg-table``    CG + mark-sweep with the table dispatch oracle pinned
                (``dispatch="table"``) — the dispatch speedup's baseline
``cg-compiled`` CG + mark-sweep with tiered dispatch promoting at the
                first visit (``promote_after=1``: every method
                codegenned eagerly on cold caches) — the tiered
                default's warmup-cost baseline
``jdk``         the unmodified base system: mark-sweep only
``cg-nogc``     CG with the tracing collector disabled and ample storage
``jdk-nogc``    the base system idem (the other half of that comparison)
``gen``         generational tracing collector, no CG (related work)
``train``       train-algorithm tracing collector, no CG (section 5.1)
==============  ==============================================================
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import asdict, dataclass, field, replace
from typing import Dict, Optional, Union

from .core.policy import CGPolicy
from .core.stats import CGStats
from .faults import FaultPlan, did_you_mean
from .gc.base import GCWork
from .jvm.runtime import Runtime, RuntimeConfig
from .obs.events import get_active_tracer
from .obs.metrics import collect_runtime_metrics
from .workloads.base import REGISTRY, Workload, get_workload

#: Ample heap used by the *-nogc isolation systems.
BIG_HEAP_WORDS = 1 << 22

#: The thesis ran MSA "every 100,000 JVM instructions" for Fig. 4.11; our
#: runs are ~20x smaller, so the period scales accordingly.
RESET_PERIOD_OPS = 5000

SYSTEMS = (
    "cg", "cg-noopt", "cg-recycle", "cg-recycle-typed", "cg-reset",
    "cg-table", "cg-compiled", "jdk", "cg-nogc", "cg-noopt-nogc",
    "jdk-nogc", "gen", "train",
)


def config_for(system: str, heap_words: int,
               gc_period_ops: Optional[int] = None) -> RuntimeConfig:
    """Build the RuntimeConfig for a named system."""
    if system == "cg":
        return RuntimeConfig(heap_words=heap_words, cg=CGPolicy.paper_default(),
                             tracing="marksweep", gc_period_ops=gc_period_ops)
    if system == "cg-noopt":
        return RuntimeConfig(heap_words=heap_words, cg=CGPolicy.no_opt(),
                             tracing="marksweep", gc_period_ops=gc_period_ops)
    if system == "cg-recycle":
        return RuntimeConfig(heap_words=heap_words,
                             cg=CGPolicy.with_recycling(),
                             tracing="marksweep", gc_period_ops=gc_period_ops)
    if system == "cg-recycle-typed":
        return RuntimeConfig(heap_words=heap_words,
                             cg=CGPolicy.with_typed_recycling(),
                             tracing="marksweep", gc_period_ops=gc_period_ops)
    if system == "cg-reset":
        return RuntimeConfig(
            heap_words=heap_words, cg=CGPolicy.with_resetting(),
            tracing="marksweep",
            gc_period_ops=gc_period_ops or RESET_PERIOD_OPS,
        )
    if system == "cg-table":
        return RuntimeConfig(heap_words=heap_words, cg=CGPolicy.paper_default(),
                             tracing="marksweep", gc_period_ops=gc_period_ops,
                             dispatch="table")
    if system == "cg-compiled":
        return RuntimeConfig(heap_words=heap_words, cg=CGPolicy.paper_default(),
                             tracing="marksweep", gc_period_ops=gc_period_ops,
                             dispatch="tiered", promote_after=1)
    if system == "jdk":
        return RuntimeConfig(heap_words=heap_words, cg=CGPolicy.disabled(),
                             tracing="marksweep", gc_period_ops=gc_period_ops)
    if system == "cg-nogc":
        return RuntimeConfig(heap_words=BIG_HEAP_WORDS,
                             cg=CGPolicy.paper_default(), tracing="none")
    if system == "cg-noopt-nogc":
        return RuntimeConfig(heap_words=BIG_HEAP_WORDS,
                             cg=CGPolicy.no_opt(), tracing="none")
    if system == "jdk-nogc":
        return RuntimeConfig(heap_words=BIG_HEAP_WORDS,
                             cg=CGPolicy.disabled(), tracing="none")
    if system == "gen":
        return RuntimeConfig(heap_words=heap_words, cg=CGPolicy.disabled(),
                             tracing="generational")
    if system == "train":
        return RuntimeConfig(heap_words=heap_words, cg=CGPolicy.disabled(),
                             tracing="train")
    raise ValueError(
        f"unknown system {system!r}{did_you_mean(system, SYSTEMS)}; "
        f"known: {SYSTEMS}"
    )


@dataclass
class RunResult:
    """Everything a figure generator might need from one run."""

    workload: str
    size: int
    system: str
    objects_created: int
    census: Dict[str, int]
    cg_stats: Optional[CGStats]
    gc_work: GCWork
    cost: "CostBreakdown"
    wall_seconds: float
    ops: int
    alloc_search_steps: int
    peak_live_words: int
    heap_words: int
    #: Unified observability snapshot (``MetricsRegistry.to_dict()``):
    #: counters/gauges/histograms covering CG stats, heap occupancy,
    #: allocator work, tracing-GC work, and (when enabled) phase timings.
    metrics: Dict[str, Dict] = field(default_factory=dict)
    #: The workload's fully resolved parameter bindings (empty for the
    #: schema-less batch workloads).
    params: Dict = field(default_factory=dict)
    #: Per-request latency attribution from
    #: :meth:`~repro.obs.profile.PhaseProfiler.request_summary` — present
    #: only for profiled runs of request-structured workloads.
    latency: Dict = field(default_factory=dict)

    # --- derived metrics used across figures -----------------------------

    @property
    def collectable_pct(self) -> float:
        if self.objects_created == 0:
            return 0.0
        return 100.0 * self.census.get("popped", 0) / self.objects_created

    @property
    def static_pct(self) -> float:
        if self.objects_created == 0:
            return 0.0
        return 100.0 * self.census.get("static", 0) / self.objects_created

    @property
    def thread_pct(self) -> float:
        if self.objects_created == 0:
            return 0.0
        return 100.0 * self.census.get("thread", 0) / self.objects_created

    @property
    def exact_pct(self) -> float:
        if self.cg_stats is None or self.objects_created == 0:
            return 0.0
        return 100.0 * self.cg_stats.exact_objects / self.objects_created

    @property
    def sim_ms(self) -> float:
        return self.cost.total_ms


#: CGStats Counter fields whose keys are ints (JSON stringifies dict keys,
#: so deserialization must convert them back).
_INT_KEYED_COUNTERS = ("block_size_hist", "age_hist")
_STR_KEYED_COUNTERS = ("static_pins", "objects_pinned")


def result_to_dict(result: RunResult) -> Dict:
    """Flatten a :class:`RunResult` to JSON-serializable primitives.

    Used by the worker processes of the parallel figure harness and by the
    on-disk result cache; :func:`result_from_dict` is the exact inverse
    (modulo JSON's string dict keys, which it restores).
    """
    cg_stats = None
    if result.cg_stats is not None:
        cg_stats = asdict(result.cg_stats)
        # asdict() rebuilds each Counter as Counter(pair_iterable), which
        # *counts the pairs* instead of reconstructing the mapping — so the
        # Counter fields must be flattened to plain dicts by hand.
        for name in _INT_KEYED_COUNTERS + _STR_KEYED_COUNTERS:
            cg_stats[name] = dict(getattr(result.cg_stats, name))
    return {
        "workload": result.workload,
        "size": result.size,
        "system": result.system,
        "objects_created": result.objects_created,
        "census": dict(result.census),
        "cg_stats": cg_stats,
        "gc_work": asdict(result.gc_work),
        "cost": asdict(result.cost),
        "wall_seconds": result.wall_seconds,
        "ops": result.ops,
        "alloc_search_steps": result.alloc_search_steps,
        "peak_live_words": result.peak_live_words,
        "heap_words": result.heap_words,
        "metrics": result.metrics,
        "params": dict(result.params),
        "latency": result.latency,
    }


def result_from_dict(data: Dict) -> RunResult:
    """Rebuild a :class:`RunResult` from :func:`result_to_dict` output."""
    from .harness.costmodel import CostBreakdown

    cg_stats = None
    if data["cg_stats"] is not None:
        raw = dict(data["cg_stats"])
        for name in _INT_KEYED_COUNTERS:
            raw[name] = Counter({int(k): v for k, v in raw[name].items()})
        for name in _STR_KEYED_COUNTERS:
            raw[name] = Counter(raw[name])
        cg_stats = CGStats(**raw)
    return RunResult(
        workload=data["workload"],
        size=data["size"],
        system=data["system"],
        objects_created=data["objects_created"],
        census=dict(data["census"]),
        cg_stats=cg_stats,
        gc_work=GCWork(**data["gc_work"]),
        cost=CostBreakdown(**data["cost"]),
        wall_seconds=data["wall_seconds"],
        ops=data["ops"],
        alloc_search_steps=data["alloc_search_steps"],
        peak_live_words=data["peak_live_words"],
        heap_words=data["heap_words"],
        metrics=data.get("metrics", {}),
        params=dict(data.get("params") or {}),
        latency=data.get("latency") or {},
    )


# ---------------------------------------------------------------------------
# The facade
# ---------------------------------------------------------------------------

@dataclass
class RunRequest:
    """The explicit form of a :func:`run` call.

    Exactly one construction path exists: ``config`` (when given) is
    copied, the run's observers and faults go on the copy, and ``system``
    becomes a pure label; otherwise the config is built by
    :func:`config_for` from ``system``/``heap_words``/``gc_period_ops``.
    ``faults`` attaches a :class:`repro.faults.FaultPlan` either way.

    **Termination policy.**  Batch workloads take the SPEC ``size`` knob
    (defaulting to 1, exactly as before).  Open-ended workloads
    (``Workload.open_ended``) are terminated by ``requests=`` (requests
    served) and optionally capped by ``max_ops=``; passing ``size=`` to
    one instead routes through the workload's ``requests_for_size`` shim,
    so historical ``size=`` call sites keep working bit-identically.
    Passing ``requests=``/``max_ops=`` to a batch workload is an error.
    """

    workload: Union[str, Workload]
    size: Optional[int] = None
    system: str = "cg"
    heap_words: Optional[int] = None
    gc_period_ops: Optional[int] = None
    seed: int = 2000
    tracer: Optional[object] = None
    profile: bool = False
    #: Spool a :class:`~repro.obs.heartbeat.LiveSnapshot` every N ops so
    #: ``python -m repro inspect`` can watch the run from another process
    #: (observational: cadence is deterministic, counters are untouched).
    heartbeat_every: Optional[int] = None
    #: Spool directory for heartbeats (default $REPRO_SPOOL or tempdir).
    heartbeat_spool: Optional[str] = None
    faults: Optional[FaultPlan] = None
    config: Optional[RuntimeConfig] = None
    #: Termination policy for open-ended workloads: stop after serving
    #: this many requests (merged into the workload's params).
    requests: Optional[int] = None
    #: Optional op-budget cap for open-ended workloads.
    max_ops: Optional[int] = None
    #: Workload parameter bindings, validated against the workload's
    #: schema (the wire-friendly way to parameterize a named workload).
    params: Optional[Dict] = None
    #: Clear the cross-runtime codegen caches before the run, so it pays
    #: the true fresh-process warmup bill.  The SLA grid's first-request
    #: latency measurements need this: in-process repeats and warm pool
    #: workers would otherwise inherit a warm cache.  Observational —
    #: caches change wall time, never counters.
    cold_start: bool = False

    def resolve_workload(self) -> Workload:
        """Instantiate the workload with its merged, validated params."""
        if isinstance(self.workload, Workload):
            if (self.params or self.requests is not None
                    or self.max_ops is not None):
                raise ValueError(
                    "params/requests/max_ops do not apply to a live "
                    "Workload instance; bind them at construction instead"
                )
            return self.workload
        name, merged = self.workload, dict(self.params or {})
        cls = REGISTRY.get(name)
        open_ended = cls is not None and cls.open_ended
        if not open_ended and (self.requests is not None
                               or self.max_ops is not None):
            raise ValueError(
                f"workload {name!r} is a batch workload sized by size=; "
                f"requests=/max_ops= apply only to open-ended workloads"
            )
        if open_ended and self.size is not None:
            if self.requests is not None or "requests" in merged:
                raise ValueError(
                    "pass size= or requests=, not both"
                )
            # Legacy shim: a size knob on an open-ended workload maps to
            # its equivalent request count, bit-identically.
            merged["requests"] = cls.requests_for_size(self.size)
        if self.requests is not None:
            merged["requests"] = self.requests
        if self.max_ops is not None:
            merged["max_ops"] = self.max_ops
        return get_workload(name, self.seed, params=merged)

    def size_label(self, wl: Workload) -> int:
        """The ``RunResult.size`` label: the historical knob for batch
        workloads (default 1), 0 for open-ended runs without one."""
        if self.size is not None:
            return self.size
        return 0 if wl.open_ended else 1

    def build(self) -> "tuple[Workload, RuntimeConfig, int]":
        """Resolve (workload, config, requested heap words).

        The third element is the heap size *asked for* — the historical
        ``RunResult.heap_words`` label, which the nogc systems' config may
        override internally with :data:`BIG_HEAP_WORDS`.
        """
        wl = self.resolve_workload()
        if self.config is not None:
            # Observers and faults below go on a copy: a run never
            # rewrites the caller's config for the runs after it.
            config = replace(self.config)
            heap = config.heap_words
        else:
            heap = (self.heap_words if self.heap_words is not None
                    else wl.heap_words(self.size_label(wl)))
            config = config_for(self.system, heap, self.gc_period_ops)
        if self.tracer is not None:
            config.tracer = self.tracer
        elif config.tracer is None:
            config.tracer = get_active_tracer()
        if self.profile:
            config.profile = True
        if self.heartbeat_every is not None:
            config.heartbeat_every = self.heartbeat_every
            config.heartbeat_spool = self.heartbeat_spool
            # Stamp the cell identity on every snapshot so the fleet view
            # can name runs without guessing.
            config.heartbeat_labels = {
                "workload": wl.name, "size": self.size_label(wl),
                "system": self.system,
            }
        if self.faults is not None:
            config.faults = self.faults
        return wl, config, heap


#: RunRequest fields that cross process boundaries (everything except the
#: live-object ones: ``tracer`` and ``config`` hold unpicklable state and
#: are rejected by :func:`request_to_dict`).
_REQUEST_FIELDS = (
    "workload", "size", "system", "heap_words", "gc_period_ops", "seed",
    "profile", "heartbeat_every", "heartbeat_spool", "requests", "max_ops",
    "params", "cold_start",
)


def request_to_dict(request: RunRequest) -> Dict:
    """Flatten a :class:`RunRequest` to JSON-serializable primitives.

    The wire form the worker pool sends to its worker processes;
    :func:`request_from_dict` is the inverse.  Requests carrying a live
    ``tracer`` or a prebuilt ``config`` are process-local by nature and
    are rejected here — run those through :func:`execute` directly.
    """
    if request.tracer is not None:
        raise ValueError("a RunRequest with a live tracer cannot be "
                         "serialized; run it in-process via execute()")
    if request.config is not None:
        raise ValueError("a RunRequest with a prebuilt config cannot be "
                         "serialized; pass system/heap_words instead")
    if not isinstance(request.workload, str):
        raise ValueError("only named workloads serialize; got a "
                         f"{type(request.workload).__name__} instance")
    data = {name: getattr(request, name) for name in _REQUEST_FIELDS}
    data["faults"] = (request.faults.to_dict()
                      if request.faults is not None else None)
    return data


def request_from_dict(data: Dict) -> RunRequest:
    """Rebuild a :class:`RunRequest` from :func:`request_to_dict` output."""
    kwargs = {name: data[name] for name in _REQUEST_FIELDS if name in data}
    faults = data.get("faults")
    if faults is not None:
        faults = (faults if isinstance(faults, FaultPlan)
                  else FaultPlan.from_dict(faults))
    kwargs["faults"] = faults
    return RunRequest(**kwargs)


def execute(request: RunRequest) -> RunResult:
    """Run one (workload, size, system) cell and gather its results."""
    from .harness.costmodel import cost_of

    if request.cold_start:
        from .jvm.compiledcode import clear_codegen_caches

        clear_codegen_caches()
    wl, config, heap = request.build()
    size = request.size_label(wl)
    runtime = Runtime(config)
    started = time.perf_counter()
    try:
        wl.execute(runtime, size)
    finally:
        # Even a run shorter than one heartbeat period (or one that dies
        # mid-flight) leaves a terminal snapshot on the spool, so the
        # fleet view can tell "done" from "vanished".
        if runtime.heartbeat is not None:
            runtime.heartbeat.close(runtime)
    wall = time.perf_counter() - started

    if runtime.collector is not None:
        census = runtime.collector.final_census()
        cg_stats = runtime.collector.stats
        objects_created = cg_stats.objects_created
        runtime.check_cg_invariants()
        recycled = runtime.collector.recycle.parked_words
    else:
        live = runtime.heap.live_count()
        census = {
            "popped": 0,
            "static": live,
            "thread": 0,
            "collected_by_msa": runtime.tracing.work.objects_collected,
        }
        cg_stats = None
        objects_created = runtime.heap.objects_created
        recycled = 0
    runtime.heap.check_accounting(recycled)

    registry = collect_runtime_metrics(runtime)
    snapshot = registry.snapshot()
    profiler = runtime.profiler
    latency = ((profiler.request_summary() or {})
               if profiler.enabled else {})
    return RunResult(
        workload=wl.name,
        size=size,
        system=request.system,
        objects_created=objects_created,
        census=census,
        cg_stats=cg_stats,
        gc_work=runtime.tracing.work,
        cost=cost_of(runtime),
        wall_seconds=wall,
        ops=int(snapshot["vm.ops"]),
        alloc_search_steps=int(snapshot["alloc.search_steps"]),
        peak_live_words=int(snapshot["heap.peak_live_words"]),
        heap_words=heap,
        metrics=registry.to_dict(),
        params=dict(wl.params),
        latency=latency,
    )


def run(
    workload: Union[str, Workload],
    size: Optional[int] = None,
    system: str = "cg",
    *,
    heap_words: Optional[int] = None,
    gc_period_ops: Optional[int] = None,
    seed: int = 2000,
    tracer=None,
    profile: bool = False,
    heartbeat_every: Optional[int] = None,
    heartbeat_spool: Optional[str] = None,
    faults: Optional[FaultPlan] = None,
    config: Optional[RuntimeConfig] = None,
    requests: Optional[int] = None,
    max_ops: Optional[int] = None,
    params: Optional[Dict] = None,
) -> RunResult:
    """Execute one cell; the public entry point for everything.

    ``size`` is the batch termination knob (default 1 for batch
    workloads); ``requests``/``max_ops`` terminate open-ended workloads
    (requests served / op budget), and ``params`` binds further
    schema-validated workload parameters.  ``tracer`` installs an event
    sink for the run; when omitted, the ambient tracer from
    :func:`repro.obs.tracing_to` (if any) is used.  ``profile`` turns on
    the perf_counter phase timers (and per-request latency attribution
    for request-structured workloads).  ``heartbeat_every`` spools a live
    snapshot every N ops for ``python -m repro inspect``.  ``faults``
    arms a deterministic :class:`~repro.faults.FaultPlan`.  Passing
    ``config`` bypasses :func:`config_for` entirely (``system`` is then
    just the label recorded on the result).
    """
    return execute(RunRequest(
        workload=workload, size=size, system=system, heap_words=heap_words,
        gc_period_ops=gc_period_ops, seed=seed, tracer=tracer,
        profile=profile, heartbeat_every=heartbeat_every,
        heartbeat_spool=heartbeat_spool, faults=faults, config=config,
        requests=requests, max_ops=max_ops, params=params,
    ))


def run_many(requests, jobs: int = 2, *,
             cell_timeout: Optional[float] = None,
             retries: int = 2) -> "list[RunResult]":
    """Execute a batch of :class:`RunRequest`\\ s on the shared worker pool.

    Results come back in request order.  A request whose cell exhausts
    its retries (worker crash or timeout) raises
    :class:`~repro.faults.QuarantinedCellError` carrying the pool's
    :class:`~repro.faults.FaultReport` — the rest of the batch still
    completes first.  ``jobs=0`` (or 1 with a single request) is the
    degenerate case and runs in-process.
    """
    from .faults import QuarantinedCellError

    requests = list(requests)
    if jobs <= 1 and len(requests) <= 1:
        return [execute(r) for r in requests]
    from .harness.pool import get_shared_pool

    pool_jobs = get_shared_pool(max(1, jobs)).run(
        [request_to_dict(r) for r in requests],
        plan=next((r.faults for r in requests if r.faults is not None), None),
        timeout=cell_timeout, retries=retries,
    )
    results = []
    for job in pool_jobs:
        if job.status != "done":
            key = tuple(job.cell_id.split(":"))
            raise QuarantinedCellError(key, job.report)
        results.append(result_from_dict(job.result_dict))
    return results
