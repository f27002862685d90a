"""MetricsRegistry: typed metrics, snapshots/deltas, and runtime folding."""

import json

from repro import CGPolicy, Mutator
from repro.obs import MetricsRegistry, collect_runtime_metrics
from tests.conftest import make_runtime


class TestRegistryBasics:
    def test_counters_and_gauges(self):
        reg = MetricsRegistry()
        reg.inc("a.count")
        reg.inc("a.count", 4)
        reg.set_counter("b.count", 9)
        reg.set_gauge("c.level", 0.5)
        assert reg.counters == {"a.count": 5, "b.count": 9}
        assert reg.gauges == {"c.level": 0.5}

    def test_histograms(self):
        reg = MetricsRegistry()
        reg.observe("sizes", 1)
        reg.observe("sizes", 1)
        reg.observe("sizes", ">10", 3)
        assert reg.histograms["sizes"] == {"1": 2, ">10": 3}

    def test_to_dict_from_dict_round_trip(self):
        reg = MetricsRegistry()
        reg.inc("x", 2)
        reg.set_gauge("y", 1.25)
        reg.observe("h", "bucket", 7)
        clone = MetricsRegistry.from_dict(reg.to_dict())
        assert clone.to_dict() == reg.to_dict()

    def test_json_line_is_valid_json_with_labels(self):
        reg = MetricsRegistry()
        reg.inc("x")
        record = json.loads(reg.to_json_line(workload="jess", size=1))
        assert record["workload"] == "jess"
        assert record["counters"] == {"x": 1}


class TestSnapshotDelta:
    def test_delta_reports_changes_only(self):
        reg = MetricsRegistry()
        reg.inc("ops", 10)
        reg.set_gauge("live", 100)
        before = reg.snapshot()
        reg.inc("ops", 5)
        reg.set_gauge("live", 80)
        reg.inc("new_counter", 1)
        delta = reg.delta(before)
        assert delta == {"ops": 5, "live": -20, "new_counter": 1}

    def test_identical_snapshots_delta_empty(self):
        reg = MetricsRegistry()
        reg.inc("ops", 3)
        assert reg.delta(reg.snapshot()) == {}

    def test_removed_name_goes_negative(self):
        reg = MetricsRegistry()
        assert reg.delta({"gone": 4.0}) == {"gone": -4.0}


class TestRuntimeFolding:
    def run_small(self):
        rt = make_runtime(cg=CGPolicy(recycling=True, paranoid=True))
        m = Mutator(rt)
        with m.frame():
            keeper = m.new("Node")
            m.set_local(0, keeper)
            for _ in range(10):
                with m.frame():
                    node = m.new("Node")
                    m.putfield(node, "next", keeper)
                    m.root(node)
        return rt

    def test_cg_counters_match_stats(self):
        rt = self.run_small()
        reg = collect_runtime_metrics(rt)
        stats = rt.collector.stats
        assert reg.counters["cg.objects_created"] == stats.objects_created
        assert reg.counters["cg.objects_popped"] == stats.objects_popped
        assert reg.counters["cg.contaminations"] == stats.contaminations
        assert reg.counters["cg.frame_pops"] == stats.frame_pops
        assert reg.counters["cg.uf_finds"] == rt.collector.equilive.finds

    def test_counter_histograms_folded(self):
        rt = self.run_small()
        reg = collect_runtime_metrics(rt)
        stats = rt.collector.stats
        age = reg.histograms["cg.age_hist"]
        assert sum(age.values()) == sum(stats.age_hist.values())
        sizes = reg.histograms["cg.block_size_hist"]
        assert sum(sizes.values()) == stats.blocks_collected

    def test_heap_and_gc_views(self):
        rt = self.run_small()
        reg = collect_runtime_metrics(rt)
        assert reg.counters["heap.objects_created"] == rt.heap.objects_created
        assert reg.gauges["heap.capacity_words"] == rt.heap.capacity
        assert reg.gauges["heap.live_words"] == rt.heap.live_words
        assert 0.0 <= reg.gauges["heap.occupancy"] <= 1.0
        assert reg.counters["gc.cycles"] == rt.tracing.work.cycles
        assert reg.counters["vm.ops"] == rt.ops

    def test_no_cg_runtime_still_folds(self):
        rt = make_runtime(cg=CGPolicy.disabled())
        m = Mutator(rt)
        with m.frame():
            m.root(m.new("Node"))
        reg = collect_runtime_metrics(rt)
        assert "cg.objects_created" not in reg.counters
        assert reg.counters["heap.objects_created"] == 1

    def test_runner_result_carries_metrics(self):
        from repro.api import run as run_workload

        result = run_workload("jess", size=1, system="cg")
        counters = result.metrics["counters"]
        assert counters["cg.objects_popped"] == result.census["popped"]
        assert counters["vm.ops"] == result.ops
        assert counters["alloc.search_steps"] == result.alloc_search_steps
        assert result.metrics["gauges"]["heap.peak_live_words"] == (
            result.peak_live_words
        )
