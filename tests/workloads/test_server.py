"""The open-ended server workload: determinism, tiers, schedules, params.

The server workload is the repo's stand-in for the paper's ch. 4.2 claim
(CG suits long-running servers).  What these tests pin:

* the run is deterministic — repeat runs and every dispatch leg (the
  table oracle and tiered across a promotion sweep) produce
  bit-identical CG counters;
* arrival schedules are seeded and pattern-shaped (integer arithmetic
  only, so the schedule replays anywhere);
* the escape-rate knob moves exactly the static-census needle it claims
  to, and parameter validation catches typos with suggestions;
* the legacy ``size=`` shim and the new ``requests=`` termination are
  bit-identical, and ``max_ops`` actually caps the run.
"""

import random

import pytest

from repro import CGPolicy, Runtime, RuntimeConfig
from repro.api import run
from repro.workloads import get_workload
from repro.workloads.server import (
    BASE_GAP,
    SIZE_REQUESTS,
    arrival_gaps,
)
from tests.conftest import assert_dispatch_parity


def counters_of(result):
    """The determinism-bearing slice of a RunResult (no wall clock)."""
    return {
        "ops": result.ops,
        "census": result.census,
        "objects_created": result.objects_created,
        "alloc_search_steps": result.alloc_search_steps,
        "gc_cycles": result.gc_work.cycles,
        "objects_popped": (result.cg_stats.objects_popped
                           if result.cg_stats else 0),
    }


def tier_run(dispatch, promote_after, requests=120):
    wl = get_workload("server", params={"requests": requests})
    rt = Runtime(RuntimeConfig(
        heap_words=wl.heap_words(0),
        cg=CGPolicy.paper_default(),
        tracing="marksweep",
        dispatch=dispatch,
        promote_after=promote_after,
    ))
    wl.execute(rt, 0)
    rt.check_heap_accounting()
    rt.check_cg_invariants()
    return {
        "ops": rt.ops,
        "census": rt.collector.final_census(),
        "created": rt.collector.stats.objects_created,
        "popped": rt.collector.stats.objects_popped,
        "gc_cycles": rt.tracing.work.cycles,
    }, rt


class TestDeterminism:
    def test_repeat_runs_bit_identical(self):
        a = run("server", system="cg", requests=150)
        b = run("server", system="cg", requests=150)
        assert counters_of(a) == counters_of(b)

    def test_profiled_run_counters_identical_to_unprofiled(self):
        # request_begin/request_end brackets only read the wall clock;
        # they must never perturb a single counter.
        plain = run("server", system="cg", requests=150)
        profiled = run("server", system="cg", requests=150, profile=True)
        assert counters_of(plain) == counters_of(profiled)
        assert profiled.latency["requests"] == 150

    def test_all_four_dispatch_tiers_bit_identical(self):
        # The four legs: table, then tiered never promoting, promoting at
        # each method's first visit, and at the default threshold.
        assert_dispatch_parity(tier_run)

    def test_seed_changes_the_run(self):
        a = run("server", system="cg", requests=150, seed=2000)
        b = run("server", system="cg", requests=150, seed=2001)
        assert a.ops != b.ops


class TestArrivalSchedules:
    def schedule(self, pattern, seed=7, n=200):
        gaps = arrival_gaps(pattern, random.Random(seed))
        return [next(gaps) for _ in range(n)]

    @pytest.mark.parametrize("pattern", ["steady", "bursty", "diurnal"])
    def test_same_seed_same_schedule(self, pattern):
        assert self.schedule(pattern) == self.schedule(pattern)

    @pytest.mark.parametrize("pattern", ["steady", "bursty", "diurnal"])
    def test_different_seed_different_schedule(self, pattern):
        assert self.schedule(pattern, seed=7) != self.schedule(
            pattern, seed=8)

    def test_patterns_are_distinct_shapes(self):
        steady = self.schedule("steady")
        bursty = self.schedule("bursty")
        diurnal = self.schedule("diurnal")
        # Steady never strays far from the base gap.
        assert all(BASE_GAP <= g < BASE_GAP + 7 for g in steady)
        # Bursty mixes near-zero gaps with long idle stretches.
        assert any(g < 3 for g in bursty)
        assert any(g >= 4 * BASE_GAP for g in bursty)
        # Diurnal swings smoothly between low and high tide.
        assert min(diurnal) < BASE_GAP
        assert max(diurnal) > BASE_GAP
        # All-integer schedules (reproducible without libm).
        for gaps in (steady, bursty, diurnal):
            assert all(isinstance(g, int) for g in gaps)

    def test_pattern_changes_the_run(self):
        a = run("server", system="cg", requests=150,
                params={"pattern": "steady"})
        b = run("server", system="cg", requests=150,
                params={"pattern": "bursty"})
        assert a.ops != b.ops


class TestEscapeRate:
    def static_census(self, escape_every, requests=200):
        result = run("server", system="cg", requests=requests,
                     params={"escape_every": escape_every})
        return result.census["static"]

    def test_zero_escape_rate_pins_only_boot_objects(self):
        # With no sessions escaping, the static census is exactly the
        # boot-time graph: 8 routes + the two static arrays.
        baseline = self.static_census(escape_every=0)
        assert baseline == self.static_census(escape_every=0)
        escaping = self.static_census(escape_every=10)
        assert escaping > baseline
        # requests=200, escape_every=10 -> exactly 20 extra sessions.
        assert escaping == baseline + 20

    def test_escape_rate_monotone(self):
        every_50 = self.static_census(escape_every=50)
        every_10 = self.static_census(escape_every=10)
        assert every_10 > every_50

    def test_bad_param_value_rejected(self):
        with pytest.raises(ValueError, match="escape_every"):
            run("server", system="cg", requests=10,
                params={"escape_every": -1})

    def test_bad_pattern_suggests_close_match(self):
        with pytest.raises(ValueError, match="did you mean 'bursty'"):
            run("server", system="cg", requests=10,
                params={"pattern": "burstee"})

    def test_unknown_param_suggests_close_match(self):
        with pytest.raises(ValueError, match="did you mean 'escape_every'"):
            run("server", system="cg", requests=10,
                params={"escape_evry": 5})


class TestTermination:
    def test_size_shim_bit_identical_to_requests(self):
        # The historical SPEC knob must keep working, bit-identically.
        legacy = run("server", 1, "cg")
        explicit = run("server", system="cg",
                       requests=SIZE_REQUESTS[1])
        assert counters_of(legacy) == counters_of(explicit)
        # The size label is the one place they differ by design.
        assert legacy.size == 1
        assert explicit.size == 0

    def test_invalid_size_rejected(self):
        with pytest.raises(ValueError, match="size"):
            run("server", 7, "cg")

    def test_max_ops_caps_the_run(self):
        capped = run("server", system="cg", requests=100000, max_ops=3000)
        unlimited = run("server", system="cg", requests=600)
        assert capped.ops < unlimited.ops
        # The cap is checked between requests, so the overshoot is at
        # most one connection's worth of work.
        assert capped.ops < 3000 + 2000
