"""Ablation benches for the design choices DESIGN.md calls out.

Not figures from the paper — these quantify the individual design decisions
on the same workloads:

* handle width (section 3.5): 16-word vs 8-word CG handles;
* the static optimization (section 3.4): collectability and cost;
* union-find efficiency: finds per store stay near-constant (the
  "(nearly) constant amount of work per storage reference" claim);
* CG against the related-work collectors (generational, train) on the
  same workload: marking work comparison.
"""

import pytest

from repro.core.policy import CGPolicy
from repro.harness.costmodel import cost_of
from repro.api import run as run_workload
from repro.jvm.mutator import Mutator
from repro.jvm.runtime import Runtime, RuntimeConfig
from repro.workloads import get_workload


def run_policy(name, policy, size=1, heap=1 << 22, tracing="none"):
    rt = Runtime(RuntimeConfig(heap_words=heap, cg=policy, tracing=tracing))
    get_workload(name).execute(rt, size)
    return rt


def test_ablation_handle_width(benchmark):
    """Section 3.5: the squeezed handle halves CG's per-allocation charge."""

    def run_both():
        wide = run_policy("jack", CGPolicy(handle_words=16))
        squeezed = run_policy("jack", CGPolicy(handle_words=8))
        return cost_of(wide).cg_maintenance, cost_of(squeezed).cg_maintenance

    wide_cost, squeezed_cost = benchmark.pedantic(
        run_both, rounds=1, iterations=1
    )
    assert squeezed_cost < wide_cost
    # Same collectability either way — the width is pure representation.


def test_ablation_static_opt_cost_and_benefit(benchmark):
    """Section 3.4: the optimization collects more and unions less."""

    def run_both():
        with_opt = run_policy("jess", CGPolicy(static_opt=True))
        without = run_policy("jess", CGPolicy(static_opt=False))
        return with_opt, without

    with_opt, without = benchmark.pedantic(run_both, rounds=1, iterations=1)
    assert (
        with_opt.collector.stats.objects_popped
        > without.collector.stats.objects_popped
    )
    assert (
        with_opt.collector.stats.contaminations
        < without.collector.stats.contaminations
    )


@pytest.mark.parametrize("name", ["jess", "raytrace", "jack"])
def test_ablation_near_constant_work_per_reference(benchmark, name):
    """Union-find keeps finds-per-store bounded (amortised alpha(n))."""

    def run():
        return run_policy(name, CGPolicy())

    rt = benchmark.pedantic(run, rounds=1, iterations=1)
    stats = rt.collector.stats
    equilive = rt.collector.equilive
    references = stats.store_events + stats.areturn_events + 1
    finds_per_ref = equilive.finds / references
    assert finds_per_ref < 6.0, finds_per_ref
    # Ranks stay tiny (the thesis observed <= 10 on SPECjvm98).
    assert all(block.rank <= 10 for block in list(equilive.blocks())[:500])


def test_ablation_cg_avoids_marking_vs_tracers(benchmark):
    """CG's central claim: no marking.  Compare total mark visits on the
    same workload under mark-sweep, generational, and train backups."""

    def run_all():
        out = {}
        for system in ("cg", "jdk", "gen", "train"):
            out[system] = run_workload("jack", 1, system,
                                       heap_words=4000)
        return out

    results = benchmark.pedantic(run_all, rounds=1, iterations=1)
    cg_marks = results["cg"].gc_work.mark_visits
    for other in ("jdk", "gen", "train"):
        assert cg_marks <= results[other].gc_work.mark_visits, other
    # And CG reclaims the bulk of objects without any tracer help.
    assert results["cg"].cg_stats.objects_popped > 0


def test_ablation_paranoid_mode_cost(benchmark):
    """The reproduction-only paranoid probe is expensive — document it."""
    import time

    def run_mode(paranoid):
        start = time.perf_counter()
        rt = Runtime(
            RuntimeConfig(
                heap_words=1 << 20,
                cg=CGPolicy(paranoid=paranoid),
                tracing="marksweep",
            )
        )
        get_workload("jess").execute(rt, 1)
        return time.perf_counter() - start

    def run_both():
        return run_mode(False), run_mode(True)

    fast, slow = benchmark.pedantic(run_both, rounds=1, iterations=1)
    assert slow >= fast * 0.5  # sanity: both complete; paranoid not faster by magic


def test_ablation_typed_recycling(benchmark):
    """Chapter 6: by-type recycling turns the linear first-fit into an O(1)
    bucket hit for same-type allocations."""
    from repro.harness.figures import pressured_heap

    def run_both():
        heap = pressured_heap("jess", 1)
        plain = run_workload("jess", 1, "cg-recycle", heap_words=heap)
        typed = run_workload("jess", 1, "cg-recycle-typed", heap_words=heap)
        return plain, typed

    plain, typed = benchmark.pedantic(run_both, rounds=1, iterations=1)
    assert typed.cg_stats.recycle_typed_hits > 0
    steps_per_hit_plain = plain.cg_stats.recycle_search_steps / max(
        1, plain.cg_stats.objects_recycled
    )
    steps_per_hit_typed = typed.cg_stats.recycle_search_steps / max(
        1, typed.cg_stats.objects_recycled
    )
    assert steps_per_hit_typed <= steps_per_hit_plain
