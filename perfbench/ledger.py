"""The traced run's exclusive per-layer ledger.

Each layer is a set of public functions of one ``repro`` module.  Tracing
replaces each of them, on its class or module, with a wrapper that
records a span (layer, parent span, start, end, request id) and charges
the span's duration minus its child spans to the layer: its *self* time.
The wrappers go in before ``api.run`` builds the runtime, because the
runtime, the heap, the mutator and generated code bind these methods
once at construction.

Left out on purpose: ``ContaminatedCollector.on_access`` (generated code
inlines its guard, so wrapping it would move work between layers) and
``Mutator.tick`` (a slot attribute bound per instance).
"""

from __future__ import annotations

from array import array
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

MUTATOR_CALLS = ("new", "new_array", "putfield", "getfield", "aastore",
                 "aaload", "putstatic", "getstatic", "root", "areturn")
RUNTIME_CALLS = ("allocate", "store_field", "store_element", "store_static",
                 "return_reference", "push_frame", "pop_frame", "load_field",
                 "load_element", "access", "run_gc")
COLLECTOR_EVENTS = ("on_alloc", "on_store", "on_areturn", "on_putstatic",
                    "on_frame_pop")

#: Layer names, in report order.  ``api`` and ``workloads`` are the
#: residual layers: the facade (runtime construction, invariant checks,
#: metrics) and ``Workload.execute`` outside every other layer.
LAYERS = (
    ("api", "workloads", "jvm.interpreter", "jvm.compile", "jvm.mutator",
     "jvm.runtime", "jvm.heap")
    + tuple(f"core.collector.{event}" for event in COLLECTOR_EVENTS)
    + ("gc.marksweep",)
)

#: Layers that also tally an outcome of each call (see :func:`targets`).
OUTCOME_LAYERS = ("jvm.heap", "core.collector.on_frame_pop", "gc.marksweep")


def _is_none(result) -> int:
    return result is None


def _count(result) -> int:
    return result


def targets(api, workload: str
            ) -> List[Tuple[str, object, str, Optional[Callable]]]:
    """``(layer, owner, attribute, outcome)`` for every wrapped function.

    ``outcome(result)`` is summed per layer: ``Heap.allocate`` returning
    ``None`` (allocation failures), objects ``on_frame_pop`` freed and
    objects a mark-sweep cycle reclaimed.
    """
    from repro.core.collector import ContaminatedCollector
    from repro.gc.marksweep import MarkSweepCollector
    from repro.jvm import closurecode, compiledcode
    from repro.jvm.heap import Heap
    from repro.jvm.interpreter import Interpreter
    from repro.jvm.mutator import Mutator
    from repro.jvm.runtime import Runtime
    from repro.workloads.base import REGISTRY

    out = [("api", api, "execute", None),
           ("workloads", REGISTRY[workload], "execute", None),
           ("jvm.interpreter", Interpreter, "run_program", None),
           ("jvm.interpreter", Interpreter, "call_sync", None),
           ("jvm.compile", closurecode, "compile_method", None),
           ("jvm.compile", compiledcode, "compile_method_py", None),
           ("jvm.compile", compiledcode, "cached_method_py", None)]
    out += [("jvm.mutator", Mutator, name, None) for name in MUTATOR_CALLS]
    out += [("jvm.runtime", Runtime, name, None) for name in RUNTIME_CALLS]
    out += [("jvm.heap", Heap, "allocate", _is_none),
            ("jvm.heap", Heap, "free", None)]
    out += [(f"core.collector.{event}", ContaminatedCollector, event,
             _count if event == "on_frame_pop" else None)
            for event in COLLECTOR_EVENTS]
    out.append(("gc.marksweep", MarkSweepCollector, "collect", _count))
    return out


class Ledger:
    """Span recorder plus running per-layer totals for one traced run."""

    def __init__(self) -> None:
        self.index = {name: i for i, name in enumerate(LAYERS)}
        n = len(LAYERS)
        self.calls = [0] * n
        self.self_s = [0.0] * n
        self.outcomes = [0] * n
        # Spans, one slot per array, indexed by span id (pre-order).
        self.layer = array("b")
        self.parent = array("l")
        self.request = array("l")
        self.start = array("d")
        self.end = array("d")
        self._stack: List[list] = []
        #: Request id stamped on spans (``-1`` outside any request).
        self.request_id = array("l", [-1])

    def reset(self) -> None:
        n = len(LAYERS)
        self.calls[:] = [0] * n
        self.self_s[:] = [0.0] * n
        self.outcomes[:] = [0] * n
        for spans in (self.layer, self.parent, self.request, self.start,
                      self.end):
            del spans[:]
        self._stack.clear()
        self.request_id[0] = -1

    def set_request(self, request_id: int) -> None:
        self.request_id[0] = request_id

    def wrap(self, layer: str, fn: Callable,
             outcome: Optional[Callable] = None) -> Callable:
        index = self.index[layer]
        calls, self_s, outcomes = self.calls, self.self_s, self.outcomes
        stack = self._stack
        push, pop = stack.append, stack.pop
        layers, parents, requests = self.layer, self.parent, self.request
        starts, ends, request_id = self.start, self.end, self.request_id

        def traced(*args, **kwargs):
            sid = len(starts)
            layers.append(index)
            parents.append(stack[-1][0] if stack else -1)
            requests.append(request_id[0])
            starts.append(0.0)
            ends.append(0.0)
            entry = [sid, 0.0]
            push(entry)
            started = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                ended = perf_counter()
                pop()
                starts[sid] = started
                ends[sid] = ended
                span = ended - started
                self_s[index] += span - entry[1]
                calls[index] += 1
                if stack:
                    stack[-1][1] += span
            if outcome is not None:
                outcomes[index] += outcome(result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", layer)
        return traced

    @contextmanager
    def installed(self, api, workload: str):
        """Wrap every :func:`targets` function; restore them on exit."""
        saved = []
        try:
            for layer, owner, name, outcome in targets(api, workload):
                own = name in vars(owner)
                original = getattr(owner, name)
                saved.append((owner, name, own, original))
                setattr(owner, name, self.wrap(layer, original, outcome))
            yield self
        finally:
            for owner, name, own, original in reversed(saved):
                if own:
                    setattr(owner, name, original)
                else:
                    delattr(owner, name)

    def totals(self) -> Dict[str, Dict[str, float]]:
        return {name: {"calls": self.calls[i], "self_s": self.self_s[i],
                       "outcome": self.outcomes[i]}
                for i, name in enumerate(LAYERS)}

    def spans(self):
        """Yield ``(id, layer, parent, start, end, request)`` rows."""
        for sid in range(len(self.start)):
            yield (sid, LAYERS[self.layer[sid]], self.parent[sid],
                   self.start[sid], self.end[sid], self.request[sid])
