"""repro — a full reproduction of "Contaminated Garbage Collection" (PLDI 2000).

Public API tour:

* :class:`repro.Runtime` / :class:`repro.RuntimeConfig` — a VM instance:
  handle-indirected heap, threads, the CG collector, and a traditional
  (tracing) collector.
* :class:`repro.CGPolicy` — which CG variant to run (the section 3.4 static
  optimization, section 3.6 resetting, section 3.7 recycling, handle width).
* :func:`repro.assemble` — build programs in the textual assembly dialect
  and run them with ``runtime.run("Main.main")``.
* :class:`repro.Mutator` — the direct-drive API the SPEC-shaped workloads
  use: same collector events, no bytecode dispatch.
* :mod:`repro.workloads` — the eight SPECjvm98-shaped benchmarks.
* :func:`repro.run` / :class:`repro.RunRequest` — the stable entry point
  for executing one measured workload run (see :mod:`repro.api`); every
  harness surface (figures, bench, CLI) routes through it.
* :class:`repro.FaultPlan` — deterministic fault injection: arm seeded
  faults at the allocator, interpreter, or native-call boundary and
  watch the recovery cascade (see :mod:`repro.faults`).
* :mod:`repro.harness` — run configurations and regenerate every table and
  figure of the paper's evaluation.

Quickstart::

    from repro import CGPolicy, Runtime, RuntimeConfig, Mutator

    rt = Runtime(RuntimeConfig(cg=CGPolicy.paper_default()))
    rt.program.define_class("Node", fields=["next"])
    m = Mutator(rt)
    with m.frame():
        a = m.new("Node")
        with m.frame():
            b = m.new("Node")
            m.putfield(b, "next", a)   # b contaminates a (and vice versa)
        # inner frame popped: nothing freed — the merged block depends on
        # the OUTER frame, because `a` is the older anchor.
    # outer frame popped: both objects collected, no marking performed.
    print(rt.collector.stats.objects_popped)  # -> 2
"""

from .api import RunRequest, RunResult, run
from .core.collector import ContaminatedCollector
from .core.policy import CGPolicy
from .core.stats import CGStats
from .faults import CrashDump, FaultPlan, FaultReport, FaultSpec
from .jvm.assembler import assemble
from .jvm.errors import OutOfMemoryError, UseAfterCollect, VMError
from .jvm.heap import Handle, Heap
from .jvm.model import JClass, JMethod, Program
from .jvm.mutator import Mutator
from .jvm.runtime import Runtime, RuntimeConfig

__version__ = "1.0.0"

__all__ = [
    "CGPolicy",
    "CGStats",
    "ContaminatedCollector",
    "CrashDump",
    "FaultPlan",
    "FaultReport",
    "FaultSpec",
    "Handle",
    "Heap",
    "JClass",
    "JMethod",
    "Mutator",
    "OutOfMemoryError",
    "Program",
    "RunRequest",
    "RunResult",
    "Runtime",
    "RuntimeConfig",
    "UseAfterCollect",
    "VMError",
    "assemble",
    "run",
    "__version__",
]
