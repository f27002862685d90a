"""Frame pops in runs where mark-sweep reclaimed objects CG still held.

Mark-sweep reports every object it frees while CG still holds it in
``collected_by_msa``.  Under plain ``cg`` such an object stays on its
block's member list until the frame pops (lazy deletion, see
:mod:`repro.core.equilive`), so the pop must skip it and count only the
live members; ``on_frame_pop`` filters members only once
``collected_by_msa`` is nonzero.  Under ``cg-reset`` the reset pass
rebuilds every block from reachable objects, so its pops meet no freed
member, but the reset moves blocks between frames.

The pop-time statistics of three such runs are pinned, and a traced and a
paranoid run must reproduce each plain run's statistics exactly: observing
a pop, or checking it against reachability, must not change what it
collects.
"""

import dataclasses

import pytest

import repro
from repro.api import config_for
from repro.obs.events import Tracer

RUNS = {
    # jess size 1, mark-sweep on allocation failure: 16 objects.
    "jess-cg-reset": ("jess", dict(size=1), "cg-reset", None),
    # The same with a collection every 500 ops: 178 objects.
    "jess-cg-reset-gc500": ("jess", dict(size=1), "cg-reset", 500),
    # 300 server requests, a collection every 500 ops: 901 objects, all
    # still on block member lists when their frames pop.
    "server-cg-gc500": ("server", dict(requests=300), "cg", 500),
}

PINS = [
    # (run, collected_by_msa, blocks_collected, block_size_hist,
    #  exact_blocks, exact_objects, age_hist, objects_popped)
    ("jess-cg-reset", 16, 1071, {1: 360, 2: 711}, 360, 360,
     {0: 360, 1: 708, 2: 714}, 1782),
    ("jess-cg-reset-gc500", 178, 990, {1: 360, 2: 630}, 360, 360,
     {0: 360, 1: 540, 2: 720}, 1620),
    ("server-cg-gc500", 901, 615, {1: 615}, 315, 315, {0: 615}, 615),
]


def run(name, **kwargs):
    workload, sizing, system, gc_period_ops = RUNS[name]
    return repro.run(workload, system=system, seed=1,
                     gc_period_ops=gc_period_ops, **sizing, **kwargs)


@pytest.mark.parametrize(
    "name, msa, blocks, sizes, exact_blocks, exact_objects, ages, popped",
    PINS, ids=[pin[0] for pin in PINS],
)
def test_pop_statistics_after_mark_sweep(name, msa, blocks, sizes,
                                         exact_blocks, exact_objects, ages,
                                         popped):
    stats = run(name).cg_stats
    assert stats.collected_by_msa == msa
    assert stats.blocks_collected == blocks
    assert dict(stats.block_size_hist) == sizes
    assert (stats.exact_blocks, stats.exact_objects) == (
        exact_blocks, exact_objects)
    assert dict(stats.age_hist) == ages
    assert stats.objects_popped == popped


@pytest.mark.parametrize("name", list(RUNS))
def test_traced_and_paranoid_pops_match_the_plain_run(name):
    result = run(name)
    plain = result.cg_stats
    tracer = Tracer(capacity=1 << 21)
    assert run(name, tracer=tracer).cg_stats == plain
    assert tracer.dropped == 0
    kinds = tracer.kind_counts()
    assert kinds["block_collect"] == plain.blocks_collected
    assert kinds["frame_pop"] == plain.frame_pops
    _, _, system, gc_period_ops = RUNS[name]
    config = config_for(system, result.heap_words, gc_period_ops)
    config = dataclasses.replace(
        config, cg=dataclasses.replace(config.cg, paranoid=True))
    assert run(name, config=config).cg_stats == plain
