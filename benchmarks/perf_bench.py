#!/usr/bin/env python
"""Wall-clock benchmark entry point (wrapper over ``repro.harness.bench``).

Regenerate the committed baseline from the repo root::

    PYTHONPATH=src python benchmarks/perf_bench.py --repeats 8 --out BENCH_7.json

CI runs the quick variant and gates on the committed baseline::

    PYTHONPATH=src python -m repro bench --small --repeats 5 --check BENCH_7.json
"""

import sys

from repro.harness.bench import main

if __name__ == "__main__":
    sys.exit(main())
