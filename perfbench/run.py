"""The repository benchmark: cg vs jdk throughput, request latency, set-up
time, retention and a per-layer ledger.

    python3 perfbench/run.py --workload jess --seed 1 --seconds 20 --trace 0

One process, one thread.  Each run measures the product system ``cg``
(CG + mark-sweep backup, tiered dispatch) and the paper's base system
``jdk`` on the same seeded input, interleaved, one ``api.run`` call at a
time (a closed loop with one client).  Every iteration's determinism
counters must equal the ``table``-dispatch oracle in ``reference.json``
(see ``make_reference.py``); a mismatch or an exception counts as failed.

``--trace 0`` prints the end-to-end metrics.  Each timing is taken per
iteration, reduced to the fast decile over the run's iterations (see
:func:`fast_decile`) and scaled to the reference host speed (see
:func:`host_slowdown`); the raw values are in the ``info`` line:

* ``<sys>.ops_per_s``: VM ops per wall second of one ``api.run`` call.
* ``<sys>.request_p50_ms`` / ``<sys>.request_tail_ms``: per-request
  latency.  On ``server`` a request is one ``Srv.handle`` invoke, and an
  iteration's tail is its p99 (4,000 requests: 40 beyond it).  On the
  batch workloads a request is the whole ``api.run`` job, so an
  iteration's p50 and tail are both the job's wall time.
* ``setup_s``: fresh interpreters (``setup_probe.py``) importing
  ``repro`` and running one cold cg iteration, scaled by calibrations
  taken next to them.
* ``cg.peak_live_words``: the heap's peak live words under CG.
* ``peak_rss_mb``: this process's peak resident set.

``--trace 1`` interleaves untraced and traced iterations and prints, per
system and layer (``ledger.py``), calls per run and self time as a share
of the traced wall, plus the residual, the traced wall and the tracing
overhead.  Spans of the first traced iteration per system are written
to ``perfbench/out/``.

Lines before the last one are a readable report plus one ``info`` JSON
line (Python version, nproc, seed, source digest, sample counts); the
last line is the result object.
"""

from __future__ import annotations

import argparse
import gc
import gzip
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from time import perf_counter
from typing import Dict, List, Optional

from measure import (CAL_REFERENCE_S, HERE, ROOT, SERVER_WORKLOADS, SYSTEMS,
                     WORKLOADS, ProgramMissing, calibrate, check, counters,
                     import_repro, input_seed, load_reference, make_hermetic,
                     percentile, request_timer, run_once, source_digest)

#: Fresh interpreters started per run to measure set-up time.
SETUP_RUNS = 9
#: The server's tail percentile: 4,000 requests per run leave 40 beyond it.
SERVER_TAIL_Q = 99
#: Fewest measured iterations per system, whatever ``--seconds`` says.
MIN_RUNS = 8
MIN_TRACED_RUNS = 3
#: Stop starting iterations after this long, to stay inside 180 s.
HARD_CAP_S = 140.0
OUT = HERE / "out"


class Gate:
    """Runs iterations and counts the ones that raise or fail the gate."""

    def __init__(self, api, reference: Dict, workload: str, seed: int):
        self.api = api
        self.reference = reference
        self.workload = workload
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.peak_live_words: Dict[str, int] = {}

    def accept(self, system: str, got: Dict, what: str) -> bool:
        problems = check(self.reference, self.workload, system, self.seed,
                         got)
        if problems:
            self.reject(f"{system} {what}: " + "; ".join(problems))
            return False
        self.peak_live_words[system] = got["peak_live_words"]
        return True

    def reject(self, message: str) -> None:
        self.failed += 1
        print(f"FAILED {self.workload} {message}", file=sys.stderr)

    def run(self, system: str, samples: Optional[List[float]] = None,
            on_request=None):
        """One gated iteration: ``(wall_s, RunResult)``, or ``None`` when
        it failed.  ``samples`` collects ``Srv.handle`` latencies."""
        self.attempted += 1
        gc.collect()
        try:
            if samples is None:
                wall, result = run_once(self.api, self.workload, system,
                                        self.seed)
            else:
                with request_timer(self.api, samples, on_request):
                    wall, result = run_once(self.api, self.workload, system,
                                            self.seed)
        except Exception:
            self.reject(f"{system} raised:\n{traceback.format_exc()}")
            return None
        if not self.accept(system, counters(self.api, result), "iteration"):
            return None
        requests = WORKLOADS[self.workload].get("requests")
        if samples is not None and len(samples) != requests:
            self.reject(f"{system}: {len(samples)} request samples, "
                        f"expected {requests}")
            return None
        return wall, result


def measure_setup(gate: Gate):
    """``setup_s`` of :data:`SETUP_RUNS` fresh interpreters (gated too),
    and a :func:`~measure.calibrate` timing taken before each."""
    times, calibrations = [], []
    command = [sys.executable, str(HERE / "setup_probe.py"),
               "--workload", gate.workload, "--seed", str(gate.seed)]
    for _ in range(SETUP_RUNS):
        calibrations.append(calibrate())
        gate.attempted += 1
        done = subprocess.run(command, cwd=ROOT, capture_output=True,
                              text=True, timeout=120)
        if done.returncode != 0:
            gate.reject(f"setup probe exited {done.returncode}:\n"
                        f"{done.stderr}")
            continue
        line = json.loads(done.stdout.strip().splitlines()[-1])
        if gate.accept("cg", line["counters"], "setup"):
            times.append(line["setup_s"])
    return times, calibrations


def timed_loop(seconds: float, enough):
    """Yield once per round until ``seconds`` passed and ``enough()``."""
    started = perf_counter()
    while True:
        yield
        elapsed = perf_counter() - started
        if elapsed >= seconds and enough():
            return
        if elapsed >= HARD_CAP_S:
            raise RuntimeError(
                f"too few samples after {elapsed:.0f} s; the machine is "
                "too slow for this run length"
            )


def fast_decile(values: List[float], higher_is_better: bool) -> float:
    """The decile at the fast end of per-iteration ``values``.

    The host's cores are shared: a run's iterations mix a fast mode with
    a slow one about 1.5x slower, in proportions that change from minute
    to minute.  The fast end moves least with that mix: between 20 s
    windows it varied 3-6% where the median varied 7-21% (ops/s and
    request latency on ``jess`` and ``server``).  Quartiles are printed
    in the ``info`` line.
    """
    deciles = statistics.quantiles(values, n=10, method="inclusive")
    return deciles[-1] if higher_is_better else deciles[0]


def host_slowdown(calibrations: List[float]) -> float:
    """How much slower than the reference the host ran Python during this
    run: the fast decile of the :func:`~measure.calibrate` timings taken
    before every iteration, over :data:`~measure.CAL_REFERENCE_S`.

    The fast decile cannot remove a slow phase that lasts the whole run,
    and those happen: one took 30% off every metric of three consecutive
    20 s ``server`` runs.  The kernel slows with the host, not with the
    program, so dividing each timing by this factor removes that phase
    while leaving any change to the program's own speed in full.
    """
    return fast_decile(calibrations, False) / CAL_REFERENCE_S


def end_to_end(api, gate: Gate, seconds: float, info: Dict) -> Dict:
    server = gate.workload in SERVER_WORKLOADS
    setup, setup_calibrations = measure_setup(gate)
    for system in SYSTEMS:  # warm-up: caches and lazy set-up, untimed
        gate.run(system, samples=[] if server else None)

    # Per system, one entry per iteration: ops/s, request p50, request tail.
    rates = {s: [] for s in SYSTEMS}
    p50 = {s: [] for s in SYSTEMS}
    tail = {s: [] for s in SYSTEMS}
    calibrations = []
    for _ in timed_loop(seconds, lambda: min(
            len(rates[s]) for s in SYSTEMS) >= MIN_RUNS):
        for system in SYSTEMS:
            calibrations.append(calibrate())
            samples = [] if server else None
            done = gate.run(system, samples=samples)
            if done is None:
                continue
            wall, result = done
            rates[system].append(result.ops / wall)
            if server:
                p50[system].append(percentile(samples, 50))
                tail[system].append(percentile(samples, SERVER_TAIL_Q))
            else:  # the whole job is the one request
                p50[system].append(wall)
                tail[system].append(wall)

    slowdown = host_slowdown(calibrations)
    raw = {}
    for system in SYSTEMS:
        raw[f"{system}.ops_per_s"] = fast_decile(rates[system], True)
        raw[f"{system}.request_p50_ms"] = 1e3 * fast_decile(p50[system], False)
        raw[f"{system}.request_tail_ms"] = 1e3 * fast_decile(tail[system],
                                                             False)
        requests = WORKLOADS[gate.workload].get("requests", 1)
        info[system] = {
            "iterations": len(rates[system]),
            "requests": requests * len(rates[system]),
            "tail": f"p{SERVER_TAIL_Q}" if server else "job",
            "ops_per_s_quartiles": statistics.quantiles(rates[system], n=4),
            "request_tail_ms_quartiles": [
                1e3 * v for v in statistics.quantiles(tail[system], n=4)],
        }
    metrics = {}
    for name, value in raw.items():
        if name.endswith("ops_per_s"):
            metrics[name] = (value * slowdown, "ops/s")
        else:
            metrics[name] = (value / slowdown, "ms")
    raw["setup_s"] = fast_decile(setup, False)
    setup_slowdown = host_slowdown(setup_calibrations)
    metrics["setup_s"] = (raw["setup_s"] / setup_slowdown, "s")
    info["raw"] = raw
    info["host_slowdown"] = {"loop": slowdown, "setup": setup_slowdown}
    metrics["cg.peak_live_words"] = (gate.peak_live_words["cg"], "words")
    metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    info["setup_s_quartiles"] = statistics.quantiles(setup, n=4)
    info["setup_runs"] = len(setup)
    return metrics


def traced(api, gate: Gate, seconds: float, info: Dict) -> Dict:
    from ledger import LAYERS, Ledger

    server = gate.workload in SERVER_WORKLOADS
    ledger = Ledger()
    for system in SYSTEMS:
        gate.run(system, samples=[] if server else None)

    plain = {s: [] for s in SYSTEMS}  # untraced walls
    runs = {s: [] for s in SYSTEMS}   # one dict per traced iteration
    spans = {}
    for _ in timed_loop(seconds, lambda: min(
            len(runs[s]) for s in SYSTEMS) >= MIN_TRACED_RUNS):
        for system in SYSTEMS:
            done = gate.run(system, samples=[] if server else None)
            if done is not None:
                plain[system].append(done[0])
            ledger.reset()
            with ledger.installed(api, gate.workload):
                done = gate.run(system, samples=[] if server else None,
                                on_request=ledger.set_request)
            if done is None:
                continue
            wall, result = done
            runs[system].append({"wall": wall, "layers": ledger.totals(),
                                 "search_steps": result.alloc_search_steps})
            if system not in spans:
                spans[system] = {"wall_s": wall,
                                 "spans": [list(row) for row in ledger.spans()]}

    metrics = {}
    ledger_rows = []
    for system in SYSTEMS:
        def median(of):
            return statistics.median(of(run) for run in runs[system])

        for layer in LAYERS:
            calls = median(lambda run: run["layers"][layer]["calls"])
            self_s = median(lambda run: run["layers"][layer]["self_s"])
            share = median(lambda run: 100.0 * run["layers"][layer]["self_s"]
                           / run["wall"])
            metrics[f"{system}.{layer}.calls"] = (calls, "count")
            metrics[f"{system}.{layer}.self_pct"] = (share, "%")
            ledger_rows.append((system, layer, calls, self_s, share))
        metrics[f"{system}.residual_pct"] = (median(lambda run: 100.0 * (
            run["wall"] - sum(t["self_s"] for t in run["layers"].values()))
            / run["wall"]), "%")
        wall = fast_decile([run["wall"] for run in runs[system]], False)
        metrics[f"{system}.traced_wall_s"] = (wall, "s")
        metrics[f"{system}.trace_overhead"] = (
            wall / fast_decile(plain[system], False), "x")
        metrics[f"{system}.jvm.heap.alloc_failed"] = (median(
            lambda run: run["layers"]["jvm.heap"]["outcome"]), "count")
        metrics[f"{system}.jvm.heap.search_steps"] = (median(
            lambda run: run["search_steps"]), "count")
        for layer, name, unit in (
                ("core.collector.on_frame_pop", "freed_per_call",
                 "objects/call"),
                ("gc.marksweep", "reclaimed_per_cycle", "objects/cycle")):
            metrics[f"{system}.{layer}.{name}"] = (median(
                lambda run: run["layers"][layer]["outcome"]
                / max(1, run["layers"][layer]["calls"])), unit)
        info[system] = {"traced_runs": len(runs[system]),
                        "untraced_runs": len(plain[system])}

    print(f"{'system':6} {'layer':32} {'calls':>9} {'self_ms':>9} {'share':>7}")
    for system, layer, calls, self_s, share in ledger_rows:
        print(f"{system:6} {layer:32} {calls:9.0f} {1e3 * self_s:9.2f} "
              f"{share:6.1f}%")
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{gate.workload}-seed{gate.seed}.json.gz"
    with gzip.open(path, "wt") as fh:
        json.dump({"workload": gate.workload, "seed": gate.seed,
                   "columns": ["id", "layer", "parent", "start_s", "end_s",
                               "request"],
                   "systems": spans}, fh)
    info["spans"] = str(path.relative_to(ROOT))
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=list(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cleared = make_hermetic()
    try:
        api = import_repro()
    except ProgramMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    gate = Gate(api, load_reference(), args.workload, args.seed)
    info = {
        "workload": args.workload, "seed": args.seed,
        "input": input_seed(args.seed), "trace": args.trace,
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "source_sha1": source_digest(), "env_cleared": cleared,
    }
    collect = traced if args.trace else end_to_end
    metrics = collect(api, gate, args.seconds, info)
    info["attempted"], info["failed"] = gate.attempted, gate.failed
    print("info " + json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
