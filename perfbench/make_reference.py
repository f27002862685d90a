"""Regenerate ``reference.json``: the correctness gate's oracle counters.

Every (workload, system, input) cell runs once with the interpreter
pinned to the ``table`` dispatch tier, the parity oracle every other tier
must match, so the reference never comes from the tiered code the
benchmark times.  Run it from the repository root after a change that is
meant to move counters:

    python3 perfbench/make_reference.py

It takes a few minutes.
"""

from __future__ import annotations

import dataclasses
import json
import sys

from measure import (INPUTS, REFERENCE, SYSTEMS, WORKLOADS, counters,
                     import_repro, make_hermetic)

ORACLE_DISPATCH = "table"


def oracle_counters(api, workload: str, system: str, seed: int):
    request = api.RunRequest(workload=workload, system=system, seed=seed,
                             **WORKLOADS[workload])
    _, config, _ = request.build()
    request.config = dataclasses.replace(config, dispatch=ORACLE_DISPATCH)
    return counters(api, api.execute(request))


def main() -> int:
    make_hermetic()
    api = import_repro()
    table = {}
    for workload in WORKLOADS:
        table[workload] = {system: [] for system in SYSTEMS}
        for seed in range(INPUTS):
            for system in SYSTEMS:
                table[workload][system].append(
                    oracle_counters(api, workload, system, seed))
            ops = {s: table[workload][s][seed]["ops"] for s in SYSTEMS}
            if len(set(ops.values())) != 1:
                print(f"{workload} input {seed}: systems disagree on ops "
                      f"{ops}", file=sys.stderr)
                return 1
        print(f"{workload}: {INPUTS} inputs", file=sys.stderr)
    with open(REFERENCE, "w") as fh:
        json.dump({"inputs": INPUTS, "workloads": WORKLOADS,
                   "dispatch": ORACLE_DISPATCH, "counters": table},
                  fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
