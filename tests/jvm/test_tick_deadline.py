"""``Runtime.tick`` against its one deadline.

Armed with a periodic GC, a heartbeat or both, ``tick`` compares ``ops``
against ``next_due()`` and fires only on reaching it: the GC first (when
a full period has passed since the last one), then the beat, each at
most once however many thresholds one bulk tick crosses.  Unarmed, it is
a bare counter bump and ``next_due()`` is None.
"""

import pytest

from repro import Runtime, RuntimeConfig


def runtime(tmp_path, **observe):
    return Runtime(RuntimeConfig(heap_words=4096,
                                 heartbeat_spool=str(tmp_path), **observe))


def record_beats(rt):
    """Wrap ``rt``'s heartbeat; returns the ``(ops, gc cycles)`` list."""
    beats = []
    beat = rt.heartbeat.beat

    def recording(runtime, phase="live"):
        beats.append((runtime.ops, runtime.tracing.work.cycles))
        return beat(runtime, phase)

    rt.heartbeat.beat = recording
    return beats


def test_unarmed_tick_only_counts(tmp_path):
    rt = runtime(tmp_path)
    assert rt.next_due() is None
    rt.tick(10**6)
    assert rt.ops == 10**6
    assert rt.tracing.work.cycles == 0
    assert rt.next_due() is None


def test_bulk_tick_fires_gc_then_one_beat(tmp_path):
    rt = runtime(tmp_path, gc_period_ops=10, heartbeat_every=7)
    beats = record_beats(rt)
    assert rt.next_due() == 7
    # Crosses beats due at 7, 14 and 21 and GCs due at 10 and 20.
    rt.tick(25)
    assert beats == [(25, 1)]
    assert rt.tracing.work.cycles == 1
    assert rt._last_periodic_gc == 25
    assert rt.next_due() == 28
    rt.tick(2)
    assert beats == [(25, 1)]
    rt.tick(1)
    assert beats == [(25, 1), (28, 1)]
    assert rt.next_due() == 35
    rt.tick(7)
    assert beats == [(25, 1), (28, 1), (35, 2)]
    assert rt.next_due() == 42


def test_gc_only(tmp_path):
    rt = runtime(tmp_path, gc_period_ops=5)
    assert rt.heartbeat is None
    assert rt.next_due() == 5
    rt.tick(4)
    assert rt.tracing.work.cycles == 0
    rt.tick(8)
    assert rt.tracing.work.cycles == 1
    assert rt._last_periodic_gc == 12
    assert rt.next_due() == 17


@pytest.mark.parametrize("bulk, due", [(8, 9), (9, 12)])
def test_beat_only(tmp_path, bulk, due):
    rt = runtime(tmp_path, heartbeat_every=3)
    beats = record_beats(rt)
    assert rt.next_due() == 3
    rt.tick(bulk)
    assert beats == [(bulk, 0)]
    # The next multiple of the period strictly above ``ops``.
    assert rt.next_due() == due
    assert rt.tracing.work.cycles == 0
