"""Latency percentiles: profiler windows → snapshot schema → inspect render."""

import json

from repro.api import run
from repro.obs import inspect as inspect_mod
from repro.obs.heartbeat import SNAPSHOT_SCHEMA, runtime_snapshot
from repro.obs.profile import (
    NULL_PROFILER,
    PhaseProfiler,
    SAMPLE_WINDOW,
)


class TestProfilerPercentiles:
    def test_nearest_rank_percentiles(self):
        profiler = PhaseProfiler()
        # 100 samples of 1ms..100ms: p50 = 50ms, p99 = 99ms, max = 100ms.
        for i in range(1, 101):
            profiler.add("interpret", i / 1000.0)
        summary = profiler.latency_summary()
        dist = summary["interpret"]
        assert dist["p50_ms"] == 50.0
        assert dist["p99_ms"] == 99.0
        assert dist["max_ms"] == 100.0
        assert dist["samples"] == 100
        assert dist["window"] == 100

    def test_single_sample_collapses_all_ranks(self):
        profiler = PhaseProfiler()
        profiler.add("msa", 0.002)
        dist = profiler.latency_summary()["msa"]
        assert dist["p50_ms"] == dist["p99_ms"] == dist["max_ms"] == 2.0

    def test_window_is_bounded_but_lifetime_count_is_not(self):
        profiler = PhaseProfiler()
        for i in range(SAMPLE_WINDOW + 100):
            profiler.add("cg-events", 0.001)
        dist = profiler.latency_summary()["cg-events"]
        assert dist["window"] == SAMPLE_WINDOW
        assert dist["samples"] == SAMPLE_WINDOW + 100

    def test_old_samples_roll_off_the_window(self):
        profiler = PhaseProfiler()
        profiler.add("interpret", 10.0)  # a 10s outlier...
        for _ in range(SAMPLE_WINDOW):
            profiler.add("interpret", 0.001)  # ...pushed out by the window
        assert profiler.latency_summary()["interpret"]["max_ms"] == 1.0

    def test_empty_and_null_profilers_summarize_empty(self):
        assert PhaseProfiler().latency_summary() == {}
        assert NULL_PROFILER.latency_summary() == {}


class TestSnapshotSchema:
    def test_profiled_run_spools_latency_in_heartbeats(self, tmp_path):
        run("jess", 1, "cg", profile=True, heartbeat_every=500,
            heartbeat_spool=str(tmp_path))
        (path,) = tmp_path.glob("run-*.jsonl")
        snap = inspect_mod.latest_snapshot(path)
        assert snap["schema"] == SNAPSHOT_SCHEMA
        latency = snap["latency"]
        assert latency, "profiled heartbeat run must carry percentiles"
        for dist in latency.values():
            assert dist["p50_ms"] <= dist["p99_ms"] <= dist["max_ms"]
            assert dist["window"] <= SAMPLE_WINDOW

    def test_unprofiled_heartbeat_run_spools_null_latency(self, tmp_path):
        run("jess", 1, "cg", heartbeat_every=500,
            heartbeat_spool=str(tmp_path))
        (path,) = tmp_path.glob("run-*.jsonl")
        assert inspect_mod.latest_snapshot(path)["latency"] is None

    def test_runtime_snapshot_latency_section(self):
        from repro.jvm.runtime import Runtime, RuntimeConfig
        from repro.obs.profile import PhaseProfiler

        runtime = Runtime(RuntimeConfig(heap_words=1 << 16))
        runtime.profiler = PhaseProfiler()
        runtime.profiler.add("interpret", 0.004)
        snap = runtime_snapshot(runtime)
        assert snap["schema"] == SNAPSHOT_SCHEMA
        assert snap["latency"]["interpret"]["p50_ms"] == 4.0
        # JSON-serializable as spooled.
        json.dumps(snap, default=str)

    def test_latency_none_when_profiling_off(self):
        from repro.jvm.runtime import Runtime, RuntimeConfig

        runtime = Runtime(RuntimeConfig(heap_words=1 << 16))
        snap = runtime_snapshot(runtime)
        assert snap["latency"] is None


class TestInspectRendering:
    def test_render_snapshot_shows_percentiles(self):
        snap = {
            "schema": SNAPSHOT_SCHEMA, "kind": "heartbeat", "pid": 1,
            "latency": {"interpret": {"p50_ms": 0.5, "p99_ms": 2.25,
                                      "max_ms": 9.0, "samples": 640,
                                      "window": 512}},
        }
        text = inspect_mod.render_snapshot(snap)
        assert "latency interpret: p50 0.500ms p99 2.250ms max 9.000ms" in text
        assert "(640 samples, window 512)" in text
