"""Pinned work counters of three seeded runs.

The cost model (Fig 4.10) charges union-find finds/unions, free-list frees
and allocator search steps.  The collector's inlined event paths maintain
the union-find counters by hand, so these literals catch any drift: one
find per block lookup, four finds plus one union per merge.
"""

import pytest

import repro

PINS = [
    # (run, cg.uf_finds, cg.uf_unions, alloc.frees, alloc_search_steps)
    (dict(workload="jess", size=1, system="cg"), 14974, 1830, 1800, 2912),
    (dict(workload="jess", size=1, system="cg-reset"),
     94011, 11705, 1798, 2912),
    (dict(workload="server", requests=100, system="cg"), 2082, 310, 508, 520),
]


@pytest.mark.parametrize(
    "run, finds, unions, frees, steps", PINS,
    ids=["jess-cg", "jess-cg-reset", "server-cg"],
)
def test_counter_pins(run, finds, unions, frees, steps):
    result = repro.run(seed=1, **run)
    counters = result.metrics["counters"]
    got = (counters["cg.uf_finds"], counters["cg.uf_unions"],
           counters["alloc.frees"], result.alloc_search_steps)
    assert got == (finds, unions, frees, steps)
