"""Set-up time of one workload in a fresh interpreter.

Times importing ``repro`` plus one cold ``api.run`` with ``system="cg"``
(building the runtime, defining the classes, closure compile, promotion
and codegen with empty codegen caches), then prints one JSON line with
the time and the run's determinism counters.  ``run.py`` starts it
several times per run; it is not meant to be run by hand, though
``python3 perfbench/setup_probe.py --workload jess --seed 0`` works.
"""

from __future__ import annotations

import argparse
import json
from time import perf_counter

from measure import WORKLOADS, counters, import_repro, run_once


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    started = perf_counter()
    api = import_repro()
    _, result = run_once(api, args.workload, "cg", args.seed)
    setup_s = perf_counter() - started
    print(json.dumps({"setup_s": setup_s, "counters": counters(api, result)}))


if __name__ == "__main__":
    main()
