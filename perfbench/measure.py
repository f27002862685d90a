"""Shared pieces of the benchmark: inputs, hermetic set-up, the
correctness gate, the percentile rule and the host-speed calibration.

Nothing here imports ``repro`` at module level: :func:`import_repro`
does it on demand, after the environment has been made hermetic, so a
directory without the program fails with a clear message instead of an
import traceback.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import sys
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"

#: The two systems every workload runs, interleaved: the product system
#: (CG + mark-sweep backup, tiered dispatch) and the paper's base system.
SYSTEMS = ("cg", "jdk")

#: Workload name -> the ``api.run`` keyword arguments that size it.
#: ``server`` serves 4,000 requests per run so each run's p99 has 40
#: samples beyond it.
WORKLOADS: Dict[str, Dict[str, int]] = {
    "jess": {"size": 10},
    "bc-calls": {"size": 10},
    "server": {"requests": 4000},
}

#: Request-structured workloads: one request is one ``Srv.handle`` call.
#: On the batch workloads one request is one whole ``api.run`` job.
SERVER_WORKLOADS = ("server",)

#: ``--seed n`` selects input ``n % INPUTS``; ``reference.json`` holds the
#: oracle counters of every (workload, system, input).
INPUTS = 16

#: Environment knobs that change which code path a run takes (dispatch
#: tier, on-disk codegen cache, result cache).  Timed runs clear them.
HERMETIC_ENV = ("REPRO_DISPATCH", "REPRO_CODEGEN_CACHE", "REPRO_RESULT_CACHE")

#: A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10

#: Seconds :func:`calibrate` takes on an uncontended core of the host the
#: benchmark was defined on (2.1 GHz Xeon, CPython 3.11): the reference
#: speed that timings are scaled to.
CAL_REFERENCE_S = 0.008


class ProgramMissing(RuntimeError):
    """The checkout does not hold the program the benchmark measures."""


def make_hermetic() -> List[str]:
    """Clear the :data:`HERMETIC_ENV` knobs in this process; returns the
    names that were set."""
    cleared = [name for name in HERMETIC_ENV if name in os.environ]
    for name in cleared:
        del os.environ[name]
    return cleared


def import_repro():
    """Import ``repro.api`` from the checkout's ``src`` directory."""
    if not (SRC / "repro" / "api.py").is_file():
        raise ProgramMissing(f"no program at {SRC / 'repro'}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from repro import api

    return api


def input_seed(seed: int) -> int:
    return seed % INPUTS


def run_once(api, workload: str, system: str, seed: int, **extra):
    """One ``api.run`` call on input ``input_seed(seed)``, timed from
    outside: ``(wall_s, RunResult)``."""
    kwargs = dict(WORKLOADS[workload], **extra)
    seed = input_seed(seed)
    started = perf_counter()
    result = api.run(workload, system=system, seed=seed, **kwargs)
    return perf_counter() - started, result


def counters(api, result) -> Dict:
    """The run's determinism counters (what the correctness gate compares)."""
    cg_stats = api.result_to_dict(result)["cg_stats"]
    digest = None
    if cg_stats is not None:
        digest = hashlib.sha1(
            json.dumps(cg_stats, sort_keys=True).encode()
        ).hexdigest()[:16]
    return {
        "ops": result.ops,
        "objects_created": result.objects_created,
        "census": dict(result.census),
        "cg_stats_sha1": digest,
        "alloc_search_steps": result.alloc_search_steps,
        "peak_live_words": result.peak_live_words,
    }


def load_reference(path: Path = REFERENCE) -> Dict:
    with open(path) as fh:
        reference = json.load(fh)
    if reference["workloads"] != WORKLOADS or reference["inputs"] != INPUTS:
        raise ValueError(
            f"{path.name} was made for other inputs; run make_reference.py"
        )
    return reference


def check(reference: Dict, workload: str, system: str, seed: int,
          got: Dict) -> List[str]:
    """Mismatches of ``got`` against the oracle counters (empty: pass).

    Besides the (workload, system, input) entry, ``ops`` must also equal
    the other system's reference: both systems run the same program on
    the same input, so only the collector may differ.
    """
    by_system = reference["counters"][workload]
    want = by_system[system][input_seed(seed)]
    problems = [
        f"{key}: got {got.get(key)!r}, reference {value!r}"
        for key, value in want.items() if got.get(key) != value
    ]
    for other in SYSTEMS:
        other_ops = by_system[other][input_seed(seed)]["ops"]
        if other != system and got.get("ops") != other_ops:
            problems.append(f"ops {got.get('ops')} != {other}.ops {other_ops}")
    return problems


class _Cell:
    __slots__ = ("value", "next")

    def __init__(self, value, next):
        self.value = value
        self.next = next


def _kernel(n: int = 30000) -> int:
    table = {}
    node = None
    for i in range(n):
        node = _Cell(i, node)
        table[i & 255] = node
        if i & 1:
            node.next = table.get((i * 7) & 255)
    return len(table)


def calibrate() -> float:
    """Best of two timings of a fixed pure-Python kernel (object
    allocation, attribute stores, dict traffic): how fast the host runs
    Python right now.  Independent of the program under test."""
    best = float("inf")
    for _ in range(2):
        started = perf_counter()
        _kernel()
        best = min(best, perf_counter() - started)
    return best


def percentile(samples: List[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile; refuses one that fewer than
    :data:`MIN_BEYOND` samples lie beyond."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    beyond = len(ordered) - rank
    if beyond < MIN_BEYOND:
        raise ValueError(
            f"p{q:g} of {len(ordered)} samples has {beyond} beyond it "
            f"(need {MIN_BEYOND})"
        )
    return ordered[rank - 1]


@contextmanager
def request_timer(api, samples: List[float], on_request=None):
    """Time every ``Runtime.invoke("Srv.handle", ...)`` into ``samples``.

    Installed on the class before the runtime is built, because the
    server's accept loop binds ``runtime.invoke`` once per run.
    ``Srv.boot`` and any other method pass through untimed.
    ``on_request(i)`` (optional) is told the request index before each
    request and ``-1`` after it.
    """
    runtime_cls = api.Runtime
    original = runtime_cls.invoke

    def invoke(self, qualified, args, thread=None):
        if qualified != "Srv.handle":
            return original(self, qualified, args, thread)
        if on_request is not None:
            on_request(len(samples))
        started = perf_counter()
        try:
            return original(self, qualified, args, thread)
        finally:
            samples.append(perf_counter() - started)
            if on_request is not None:
                on_request(-1)

    runtime_cls.invoke = invoke
    try:
        yield samples
    finally:
        runtime_cls.invoke = original


def source_digest() -> str:
    """sha1 over the program's source files: identifies the code measured
    (the checkout the benchmark runs in is not a git repository)."""
    digest = hashlib.sha1()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:12]
