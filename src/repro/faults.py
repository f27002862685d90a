"""Deterministic fault injection and structured failure reporting.

The paper's collector is *sound but conservative*: CG may retain garbage,
so a deployment must assume the heap can run dry and prove the runtime
degrades gracefully instead of crashing.  This module is the seam that
makes those failures reproducible:

* A :class:`FaultPlan` arms failure points at named **sites** —
  ``heap.alloc`` (synthetic allocation failure), ``interp.step`` (an
  injected trap in the dispatch loop) and ``native.call`` (a
  native-boundary escape failure).  Firing schedules are pure counter
  arithmetic (``after``/``every``/``count``) so a plan replays identically
  on every run; there is no wall-clock or RNG dependence anywhere.
* Each firing produces a :class:`FaultReport`; unrecoverable ones carry a
  :class:`CrashDump` — heap occupancy, the equilive-block census, the
  recycle-list census, a trace tail, and every thread's frame stack —
  serialized to JSON for postmortems.
* The runtime answers ``heap.alloc`` failures with a recovery cascade
  (recycle search, CG emergency pass, mark-sweep backstop) before giving
  up; see :meth:`repro.jvm.runtime.Runtime._allocate_slow`.

With no plan armed every hook reduces to a single ``is not None`` test,
so figure tables and bench counters stay bit-identical.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from difflib import get_close_matches
from typing import Dict, Iterable, Optional, Tuple

from .jvm.errors import VMError

#: Every site a plan can arm, with the failure it synthesizes there.
FAULT_SITES = (
    "heap.alloc",      # the free-list allocation returns no storage
    "interp.step",     # the dispatch loop hits a trap (bad-opcode analogue)
    "native.call",     # a native boundary crossing fails to escape-pin
)

#: Failure kinds each site supports.
SITE_KINDS: Dict[str, Tuple[str, ...]] = {
    "heap.alloc": ("oom",),
    "interp.step": ("trap",),
    "native.call": ("escape",),
}


def did_you_mean(name: str, choices: Iterable[str]) -> str:
    """A ``" (did you mean 'x'?)"`` suffix for ValueError messages."""
    match = get_close_matches(str(name), list(choices), n=1, cutoff=0.5)
    return f" (did you mean {match[0]!r}?)" if match else ""


# ---------------------------------------------------------------------------
# Plan: what to fail, where, and when
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FaultSpec:
    """One armed site: fire ``count`` times starting at hit ``after``.

    The hit index is 0-based: ``after=10`` fails the 11th crossing of the
    site, then every ``every``-th crossing after that, ``count`` times in
    total (``count=None`` means unbounded).
    """

    site: str
    kind: str
    after: int = 0
    every: int = 1
    count: Optional[int] = 1

    def __post_init__(self) -> None:
        if self.site not in FAULT_SITES:
            raise ValueError(
                f"fault site must be one of {FAULT_SITES}, got {self.site!r}"
                f"{did_you_mean(self.site, FAULT_SITES)}"
            )
        kinds = SITE_KINDS[self.site]
        if self.kind not in kinds:
            raise ValueError(
                f"fault kind for {self.site} must be one of {kinds}, "
                f"got {self.kind!r}{did_you_mean(self.kind, kinds)}"
            )
        if self.after < 0:
            raise ValueError("after must be >= 0")
        if self.every < 1:
            raise ValueError("every must be >= 1")
        if self.count is not None and self.count < 1:
            raise ValueError("count must be >= 1 (or None for unbounded)")

    def to_dict(self) -> Dict:
        return {
            "site": self.site, "kind": self.kind, "after": self.after,
            "every": self.every, "count": self.count,
        }

    _INT_KEYS = ("after", "every")

    @staticmethod
    def parse(text: str) -> "FaultSpec":
        """Parse ``site:kind[:key=value...]``, e.g. ``heap.alloc:oom:after=100``."""
        parts = [p.strip() for p in text.split(":") if p.strip()]
        if len(parts) < 2:
            raise ValueError(
                f"fault spec {text!r} must look like site:kind[:key=value...]"
            )
        site, kind, *options = parts
        kwargs: Dict[str, object] = {}
        for option in options:
            if "=" not in option:
                raise ValueError(f"bad fault option {option!r} (need key=value)")
            key, _, value = option.partition("=")
            key = key.strip()
            value = value.strip()
            if key in FaultSpec._INT_KEYS:
                kwargs[key] = int(value)
            elif key == "count":
                kwargs[key] = None if value in ("inf", "*", "none") else int(value)
            else:
                known = FaultSpec._INT_KEYS + ("count",)
                raise ValueError(
                    f"unknown fault option {key!r}{did_you_mean(key, known)}"
                )
        return FaultSpec(site, kind, **kwargs)


class FaultPlan:
    """A deterministic set of armed fault sites (at most one per site).

    Firing state (hit and fire counters) is **per runtime**: the
    :class:`~repro.jvm.runtime.Runtime` constructor calls :meth:`rearm`,
    so every run driven by the same plan replays the same schedule.
    """

    def __init__(self, specs: Iterable[FaultSpec] = (), seed: int = 0) -> None:
        self.specs: Tuple[FaultSpec, ...] = tuple(specs)
        self.seed = seed
        self._by_site: Dict[str, FaultSpec] = {}
        for spec in self.specs:
            if spec.site in self._by_site:
                raise ValueError(f"duplicate fault spec for site {spec.site!r}")
            self._by_site[spec.site] = spec
        self._hits: Dict[str, int] = {}
        self._fired: Dict[str, int] = {}
        self.rearm()

    # -- state ----------------------------------------------------------

    def rearm(self) -> None:
        """Reset all firing state (called once per Runtime construction)."""
        self._hits = {site: 0 for site in self._by_site}
        self._fired = {site: 0 for site in self._by_site}

    def arms(self, site: str) -> bool:
        return site in self._by_site

    def fired(self, site: str) -> int:
        return self._fired.get(site, 0)

    def _next_fire_index(self, site: str) -> Optional[int]:
        spec = self._by_site[site]
        fired = self._fired[site]
        if spec.count is not None and fired >= spec.count:
            return None
        return spec.after + fired * spec.every

    def hits_until_fire(self, site: str) -> Optional[int]:
        """Hits left before the site fires again (None = never again)."""
        if site not in self._by_site:
            return None
        index = self._next_fire_index(site)
        if index is None:
            return None
        return max(0, index - self._hits[site])

    def charge(self, site: str, n: int) -> None:
        """Advance the hit counter by ``n`` without firing (bulk hits)."""
        self._hits[site] += n

    def consume_fire(self, site: str) -> int:
        """Record one firing; returns the 1-based firing ordinal."""
        self._hits[site] += 1
        self._fired[site] += 1
        return self._fired[site]

    def should_fire(self, site: str) -> bool:
        """Count one hit at ``site``; True iff this hit is a firing point.

        The hit is consumed either way, so callers just branch on the
        result — the schedule arithmetic lives entirely here.
        """
        spec = self._by_site.get(site)
        if spec is None:
            return False
        index = self._next_fire_index(site)
        if index is not None and self._hits[site] == index:
            self.consume_fire(site)
            return True
        self._hits[site] += 1
        return False

    # -- identity / serialization --------------------------------------

    def to_dict(self) -> Dict:
        return {
            "seed": self.seed,
            "specs": [spec.to_dict() for spec in
                      sorted(self.specs, key=lambda s: s.site)],
        }

    @staticmethod
    def parse(text: str, seed: int = 0) -> "FaultPlan":
        """Parse ``;``-separated specs, e.g. ``heap.alloc:oom:after=50;...``."""
        specs = [FaultSpec.parse(part) for part in text.split(";") if part.strip()]
        if not specs:
            raise ValueError(f"empty fault plan {text!r}")
        return FaultPlan(specs, seed=seed)

    def fingerprint(self) -> str:
        """Stable digest of the plan's semantics (not its firing state)."""
        payload = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha1(payload.encode()).hexdigest()[:12]

    def describe(self) -> Dict:
        """Plan + current firing state, for crash dumps."""
        return {
            "plan": self.to_dict(),
            "hits": dict(self._hits),
            "fired": dict(self._fired),
        }

    def __repr__(self) -> str:
        armed = ", ".join(f"{s.site}:{s.kind}" for s in self.specs)
        return f"<FaultPlan [{armed}]>"


# ---------------------------------------------------------------------------
# Reports and dumps: every injected failure is structured, never a bare trace
# ---------------------------------------------------------------------------

@dataclass
class FaultReport:
    """What fired, where, and the state it left behind (all picklable)."""

    site: str
    kind: str
    message: str
    firing: int = 1
    context: Dict[str, object] = field(default_factory=dict)
    dump: Optional[Dict] = None

    def to_dict(self) -> Dict:
        return {
            "site": self.site, "kind": self.kind, "message": self.message,
            "firing": self.firing, "context": dict(self.context),
            "dump": self.dump,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, default=str)


class CrashDump:
    """Postmortem snapshot of a runtime, JSON-serializable end to end.

    Built on the same base serializer as the live-inspection heartbeat
    (:func:`repro.obs.heartbeat.runtime_snapshot`): both carry its
    ``SNAPSHOT_SCHEMA`` tag plus heap occupancy, equilive/recycle
    censuses, frame stacks, fault stats, and the ``requests`` and
    ``compile`` sections.  A crash dump adds the postmortem sections
    (``reason``/``site``/``trace_tail``/``retained``/``fault_plan``); a
    heartbeat adds liveness identity and the metrics registry instead.
    """

    def __init__(self, data: Dict) -> None:
        self.data = data

    def to_dict(self) -> Dict:
        return self.data

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.data, indent=indent, sort_keys=True, default=str)

    def __repr__(self) -> str:
        return f"<CrashDump reason={self.data.get('reason')!r}>"

    TRACE_TAIL = 50

    @classmethod
    def capture(cls, runtime, reason: str, site: Optional[str] = None,
                **extra) -> "CrashDump":
        """Snapshot ``runtime`` after a failure.  Read-only and tolerant:
        every section degrades to ``None`` when its subsystem is absent."""
        from .obs.heartbeat import runtime_snapshot

        data: Dict[str, object] = runtime_snapshot(runtime)
        data["kind"] = "crash"
        data["reason"] = reason
        data["site"] = site
        data.update(extra)
        tracer = runtime.tracer
        if tracer.enabled:
            tail = list(tracer)[-cls.TRACE_TAIL:]
            data["trace_tail"] = [
                {"seq": e.seq, "kind": e.kind, **e.data} for e in tail
            ]
        else:
            data["trace_tail"] = []
        backstop = getattr(runtime.tracing, "backstop_census", None)
        data["retained"] = backstop() if backstop is not None else None
        plan = runtime.config.faults
        data["fault_plan"] = plan.describe() if plan is not None else None
        return cls(data)


def inject(runtime, site: str, kind: str, message: str,
           capture_dump: bool = True, **context) -> FaultReport:
    """Account one firing at ``site`` on ``runtime`` and build its report.

    Bumps ``runtime.fault_stats``, emits a ``fault_inject`` trace event
    (when tracing), and attaches a :class:`CrashDump` unless the caller
    expects to recover.
    """
    stats = getattr(runtime, "fault_stats", None)
    if stats is not None:
        stats[f"injected.{site}"] += 1
    plan = runtime.config.faults
    firing = plan.fired(site) if plan is not None else 1
    tracer = runtime.tracer
    if tracer.enabled:
        tracer.emit("fault_inject", site=site, fault=kind, firing=firing,
                    ops=runtime.ops)
    dump = None
    if capture_dump:
        dump = CrashDump.capture(runtime, reason=message, site=site).to_dict()
    return FaultReport(site=site, kind=kind, message=message, firing=firing,
                       context=dict(context), dump=dump)


# ---------------------------------------------------------------------------
# Exceptions
# ---------------------------------------------------------------------------

class FaultError(VMError):
    """Base for injected failures; always carries a :class:`FaultReport`."""

    def __init__(self, report: FaultReport, message: Optional[str] = None):
        self.report = report
        super().__init__(message or report.message)

    def __reduce__(self):
        # Exception's default pickling re-calls ``__init__`` with the
        # message alone; pass the report too, so a pickled error keeps it.
        return (self.__class__, (self.report, str(self)))


class TrapFault(FaultError):
    """An injected trap in the interpreter's dispatch loop."""


class NativeCallFault(FaultError):
    """An injected failure at the native-call boundary."""
