"""Unit tests for runtime allocation policy, roots, and periodic GC."""

import pytest

from repro import CGPolicy, Mutator, OutOfMemoryError, Runtime, RuntimeConfig
from tests.conftest import assert_clean, define_test_classes, make_runtime


class TestConfig:
    def test_rejects_unknown_tracing(self):
        with pytest.raises(ValueError):
            RuntimeConfig(tracing="zgc")

    def test_rejects_nonpositive_heap(self):
        with pytest.raises(ValueError):
            RuntimeConfig(heap_words=0)

    def test_handle_width_follows_policy(self):
        rt = Runtime(RuntimeConfig(cg=CGPolicy(handle_words=8)))
        assert rt.heap.handle_words == 8

    def test_disabled_cg_uses_jdk_handles(self):
        rt = Runtime(RuntimeConfig(cg=CGPolicy.disabled()))
        assert rt.collector is None
        assert rt.heap.handle_words == 2

    @pytest.mark.parametrize("observe", [
        {}, {"gc_period_ops": 10, "heartbeat_every": 7},
    ])
    def test_attributes_fit_cpython_shared_keys(self, observe, tmp_path):
        # CPython specialises ``self.<name>`` reads only while the first
        # instance of a class has at most 29 attributes; a 30th gives
        # every runtime a plain dict, which cost Mutator-driven jess 5-13%
        # of its ops/sec.
        rt = Runtime(RuntimeConfig(heartbeat_spool=str(tmp_path),
                                   **observe))
        rt.interpreter
        assert len(vars(rt)) <= 29


class TestAllocationPolicy:
    def test_allocation_failure_triggers_tracing_gc(self):
        rt = make_runtime(heap_words=64, tracing="marksweep")
        m = Mutator(rt)
        with m.frame():
            # Node = 2 header + 2 fields = 4 words; 16 fill the heap.
            for _ in range(40):
                m.drop(m.new("Node"))
        assert rt.tracing.work.cycles >= 1
        assert rt.tracing.work.objects_collected > 0
        assert_clean(rt)

    def test_oom_when_nothing_collectable(self):
        rt = make_runtime(heap_words=64, tracing="marksweep")
        m = Mutator(rt)
        with pytest.raises(OutOfMemoryError):
            with m.frame():
                for i in range(40):
                    m.root(m.new("Node"))  # all rooted: unreclaimable

    def test_oom_with_null_gc(self):
        rt = make_runtime(heap_words=64, tracing="none")
        m = Mutator(rt)
        with pytest.raises(OutOfMemoryError):
            with m.frame():
                for _ in range(40):
                    m.drop(m.new("Node"))

    def test_cg_frees_without_tracing_gc(self):
        """CG alone sustains a loop that would OOM under the null collector."""
        rt = make_runtime(heap_words=64, tracing="none")
        m = Mutator(rt)
        with m.frame():
            for _ in range(40):
                with m.frame():
                    m.root(m.new("Node"))
        assert rt.tracing.work.cycles == 0
        assert rt.collector.stats.objects_popped == 40
        assert_clean(rt)

    def test_recycle_consulted_before_tracing_gc(self):
        rt = make_runtime(
            heap_words=64, cg=CGPolicy(recycling=True, paranoid=True),
            tracing="marksweep",
        )
        m = Mutator(rt)
        with m.frame():
            for _ in range(40):
                with m.frame():
                    m.root(m.new("Node"))
        assert rt.collector.stats.objects_recycled > 0
        assert rt.tracing.work.cycles == 0
        assert_clean(rt)


class TestRoots:
    def test_roots_include_locals_stack_statics_intern_native(self):
        rt = make_runtime()
        m = Mutator(rt)
        with m.frame():
            local = m.new("Node")
            m.set_local(0, local)
            temp = m.new("Node")  # operand-stack temp root
            static = m.new("Node")
            m.putstatic("s", static)
            interned = m.intern(m.new_string("k"))
            pinned = m.new("Node")
            rt.natives.pin(pinned)
            roots = set(rt.iter_roots())
            assert {local, temp, static, interned, pinned} <= roots
            m.drop(temp)
            rt.natives.unpin(pinned)
            m.drop(pinned)

    def test_static_roots_subset(self):
        rt = make_runtime()
        m = Mutator(rt)
        with m.frame():
            local = m.new("Node")
            m.set_local(0, local)
            static = m.new("Node")
            m.putstatic("s", static)
            static_roots = set(rt.iter_static_roots())
            assert static in static_roots
            assert local not in static_roots

    def test_class_statics_are_roots(self):
        rt = make_runtime()
        cls = rt.program.lookup("Node")
        m = Mutator(rt)
        with m.frame():
            h = m.new("Node")
            rt.store_static("singleton", h, cls=cls)
            assert h in set(rt.iter_roots())


class TestPeriodicGC:
    def test_periodic_trigger_runs_tracing_collector(self):
        rt = make_runtime(heap_words=1 << 16, gc_period_ops=50)
        m = Mutator(rt)
        with m.frame():
            for _ in range(30):
                h = m.new("Node")
                m.root(h)
                for _ in range(5):
                    m.tick()
        assert rt.tracing.work.cycles >= 2

    def test_no_periodic_gc_by_default(self):
        rt = make_runtime(heap_words=1 << 16)
        m = Mutator(rt)
        with m.frame():
            for _ in range(50):
                m.root(m.new("Node"))
        assert rt.tracing.work.cycles == 0


class TestThreads:
    def test_thread_ids_unique_and_registered(self):
        rt = make_runtime()
        t1 = rt.new_thread("a")
        t2 = rt.new_thread("b")
        ids = {rt.main_thread.thread_id, t1.thread_id, t2.thread_id}
        assert len(ids) == 3
        assert set(rt.threads()) >= {rt.main_thread, t1, t2}


class TestCensusConsistency:
    def test_population_conserved(self):
        """created == popped + swept + live (invariant of the evaluation)."""
        rt = make_runtime(heap_words=512, tracing="marksweep")
        m = Mutator(rt)
        with m.frame():
            keep = m.new("Node")
            m.set_local(0, keep)
            for i in range(100):
                with m.frame():
                    h = m.new("Node")
                    m.root(h)
                if i % 3 == 0:
                    # Dies mid-frame: only the tracing collector can get it
                    # before the outer pop.
                    m.drop(m.new("Node"))
        st = rt.collector.stats
        live = rt.heap.live_count()
        assert st.objects_created == st.objects_popped + st.collected_by_msa + live
        assert_clean(rt)
