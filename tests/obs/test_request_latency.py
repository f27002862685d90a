"""Per-request pause attribution: the maths, the plumbing, the surface.

The tentpole claim — "CG never stops the world mid-request" — is only
checkable if pause time is attributed to request windows correctly and
the numbers survive the trip from profiler to RunResult to heartbeat to
``repro inspect``.  These tests pin each hop.
"""

import pytest

from repro.api import RunRequest, execute, result_from_dict, result_to_dict
from repro.obs.profile import (
    NULL_PROFILER,
    PAUSE_BUCKETS_MS,
    PAUSE_PHASES,
    PhaseProfiler,
    _nearest_rank,
)


class TestNearestRank:
    def test_single_sample_is_every_percentile(self):
        dist = _nearest_rank([0.004])
        assert dist == {"p50_ms": 4.0, "p99_ms": 4.0,
                        "p999_ms": 4.0, "max_ms": 4.0}

    def test_percentiles_of_uniform_ramp(self):
        window = sorted((i + 1) / 1000.0 for i in range(1000))
        dist = _nearest_rank(window)
        assert dist["p50_ms"] == pytest.approx(500.0)
        assert dist["p99_ms"] == pytest.approx(990.0)
        assert dist["p999_ms"] == pytest.approx(999.0)
        assert dist["max_ms"] == pytest.approx(1000.0)


class TestAttribution:
    def test_pause_inside_window_charged_to_request(self):
        profiler = PhaseProfiler()
        profiler.request_begin()
        profiler.add("msa", 0.002)
        profiler.add("interpret", 0.010)  # mutator work: not a pause
        profiler.request_end()
        summary = profiler.request_summary()
        assert summary["requests"] == 1
        assert summary["pause_ms"]["max_ms"] == pytest.approx(2.0)

    def test_pause_outside_window_not_charged(self):
        profiler = PhaseProfiler()
        profiler.add("msa", 0.005)  # between requests
        profiler.request_begin()
        profiler.request_end()
        summary = profiler.request_summary()
        assert summary["pause_ms"]["max_ms"] == pytest.approx(0.0)
        # ...but the histogram sees every pause, windowed or not.
        assert sum(summary["pause_hist"]["counts"]) == 1

    def test_mutator_time_is_total_minus_pause(self):
        profiler = PhaseProfiler()
        profiler._note_request(0.010, 0.004)
        summary = profiler.request_summary()
        assert summary["mutator_ms"]["max_ms"] == pytest.approx(6.0)
        assert summary["pause_share_pct"] == pytest.approx(40.0)

    def test_end_without_begin_is_a_no_op(self):
        profiler = PhaseProfiler()
        profiler.request_end()
        assert profiler.request_summary() is None

    def test_histogram_bucket_boundaries(self):
        profiler = PhaseProfiler()
        profiler.add("msa", 0.00004)      # 0.04ms -> first bucket
        profiler.add("msa", 0.00005)      # exactly 0.05ms -> first bucket
        profiler.add("cg-events", 0.0006)  # 0.6ms -> le 1.0 bucket
        profiler.add("msa", 0.5)          # 500ms -> overflow
        counts = profiler.pause_hist
        assert len(counts) == len(PAUSE_BUCKETS_MS) + 1
        assert counts[0] == 2
        assert counts[list(PAUSE_BUCKETS_MS).index(1.0)] == 1
        assert counts[-1] == 1

    def test_interpret_is_not_a_pause_phase(self):
        assert "interpret" not in PAUSE_PHASES
        assert "compile" not in PAUSE_PHASES
        assert PAUSE_PHASES == {"msa", "cg-events", "recycle-search"}


class TestNullProfiler:
    def test_brackets_are_no_ops(self):
        NULL_PROFILER.request_begin()
        NULL_PROFILER.request_end()
        assert NULL_PROFILER.request_summary() is None
        assert NULL_PROFILER.request_totals == []
        assert not NULL_PROFILER.enabled


class TestSurface:
    def run_profiled(self, **kwargs):
        return execute(RunRequest("server", system="cg", requests=40,
                                  profile=True, **kwargs))

    def test_result_latency_round_trips(self):
        result = self.run_profiled()
        assert result.latency["requests"] == 40
        restored = result_from_dict(result_to_dict(result))
        assert restored.latency == result.latency

    def test_unprofiled_result_has_empty_latency(self):
        result = execute(RunRequest("server", system="cg", requests=40))
        assert result.latency == {}

    def test_snapshot_carries_requests_section(self, tmp_path):
        result = self.run_profiled(heartbeat_every=500,
                                   heartbeat_spool=str(tmp_path))
        from repro.obs.inspect import latest_snapshot, render_snapshot

        (run_file,) = tmp_path.glob("run-*.jsonl")
        snapshot = latest_snapshot(run_file)
        assert snapshot["schema"] == "cg-snapshot/8"
        requests = snapshot["requests"]
        assert requests["requests"] == result.latency["requests"] == 40
        assert requests["pause_hist"]["le_ms"] == list(PAUSE_BUCKETS_MS)
        rendered = render_snapshot(snapshot)
        assert "requests: 40 served" in rendered
        assert "pause p99" in rendered

    def test_unprofiled_snapshot_requests_is_none(self, tmp_path):
        execute(RunRequest("server", system="cg", requests=40,
                           heartbeat_every=500,
                           heartbeat_spool=str(tmp_path)))
        from repro.obs.inspect import latest_snapshot

        (run_file,) = tmp_path.glob("run-*.jsonl")
        assert latest_snapshot(run_file)["requests"] is None
