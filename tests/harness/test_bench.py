"""Benchmark harness: report shape, baseline comparison, CLI exit codes."""

import json

import pytest

from repro.harness import bench


def tiny_report(**overrides):
    entry = {
        "workload": "jess", "size": 1, "system": "cg",
        "wall_seconds": 0.05, "ops": 1000, "ops_per_sec": 20000.0,
        "alloc_search_steps": 42,
    }
    entry.update(overrides)
    return {"version": bench.BENCH_VERSION, "size": 1, "repeats": 1,
            "entries": [entry]}


class TestRunBench:
    def test_report_shape_and_determinism_counters(self):
        report = bench.run_bench(["db"], ["cg", "jdk"], size=1, repeats=1)
        assert {e["system"] for e in report["entries"]} == {"cg", "jdk"}
        again = bench.run_bench(["db"], ["cg", "jdk"], size=1, repeats=1)
        for a, b in zip(report["entries"], again["entries"]):
            assert a["ops"] == b["ops"]
            assert a["alloc_search_steps"] == b["alloc_search_steps"]
            assert a["wall_seconds"] > 0

    def test_write_and_load_roundtrip(self, tmp_path):
        report = tiny_report()
        path = str(tmp_path / "bench.json")
        bench.write_bench(path, report)
        assert bench.load_bench(path) == report

    def test_compile_ms_split_cold_vs_steady(self):
        # Every grid cell reports both warmup columns; for a compiling
        # system the cold number (cleared codegen cache) dominates the
        # steady-state one, which only pays binding rebuilds.  The timed
        # run reports its own vm.compile.ms, so warm the cache first.
        from repro.api import run

        run("bc-loop", 1, "cg-compiled")
        report = bench.run_bench(["bc-loop"], ["cg-compiled", "cg-table"],
                                 size=1, repeats=1)
        by_system = {e["system"]: e for e in report["entries"]}
        compiled = by_system["cg-compiled"]
        assert compiled["compile_ms_first_iter"] > 0.0
        assert compiled["compile_ms"] >= 0.0
        assert compiled["compile_ms_first_iter"] >= compiled["compile_ms"]
        # The table tier never runs the codegen, cold or warm.
        table = by_system["cg-table"]
        assert table["compile_ms_first_iter"] >= 0.0


class TestWarmupCurve:
    def test_report_shape(self):
        report = bench.run_warmup_curve(["bc-loop"], ["cg", "cg-table"],
                                        size=1, iters=3)
        assert report["warmup_curve"] is True
        assert report["version"] == bench.BENCH_VERSION
        assert len(report["entries"]) == 2
        for entry in report["entries"]:
            assert entry["iters"] == 3
            assert len(entry["walls"]) == 3
            assert entry["first_iter_wall_seconds"] == entry["walls"][0]
            assert entry["steady_wall_seconds"] == min(entry["walls"])
            assert entry["warmup_ratio"] >= 1.0
            assert 1 <= entry["time_to_peak_iters"] <= 3

    def test_lines_render(self):
        report = bench.run_warmup_curve(["bc-loop"], ["cg"], size=1,
                                        iters=2)
        lines = bench.warmup_lines(report)
        assert any("bc-loop" in line for line in lines)
        assert any("warmup curve" in line for line in lines)


class TestCompare:
    def test_identical_reports_pass(self):
        ok, lines = bench.compare(tiny_report(), tiny_report())
        assert ok
        assert any("geomean" in line for line in lines)

    def test_counter_drift_fails(self):
        ok, lines = bench.compare(tiny_report(ops=1001), tiny_report())
        assert not ok
        assert any("determinism break" in line for line in lines)

    def test_wall_regression_beyond_tolerance_fails(self):
        ok, _ = bench.compare(tiny_report(wall_seconds=0.07), tiny_report(),
                              tolerance=0.25)
        assert not ok

    def test_wall_slowdown_within_tolerance_passes(self):
        ok, _ = bench.compare(tiny_report(wall_seconds=0.06), tiny_report(),
                              tolerance=0.25)
        assert ok

    def test_missing_cells_note_but_pass(self):
        current = tiny_report()
        baseline = tiny_report()
        baseline["entries"].append(
            dict(baseline["entries"][0], system="jdk"))
        ok, lines = bench.compare(current, baseline)
        assert ok
        assert any("not in current" in line for line in lines)


class TestMain:
    def test_out_and_check_against_self(self, tmp_path):
        out = str(tmp_path / "report.json")
        assert bench.main(["--workloads", "db", "--systems", "cg",
                           "--repeats", "1", "--out", out]) == 0
        # Counters are deterministic, so self-check always passes unless
        # the machine got >25% (geomean) slower between the two runs.
        assert bench.main(["--workloads", "db", "--systems", "cg",
                           "--repeats", "3", "--check", out,
                           "--tolerance", "10.0"]) == 0

    def test_check_regression_exit_code(self, tmp_path):
        out = str(tmp_path / "report.json")
        assert bench.main(["--workloads", "db", "--systems", "cg",
                           "--repeats", "1", "--out", out]) == 0
        baseline = bench.load_bench(out)
        baseline["entries"][0]["ops"] += 1
        with open(out, "w") as fh:
            json.dump(baseline, fh)
        assert bench.main(["--workloads", "db", "--systems", "cg",
                           "--repeats", "1", "--check", out]) == 1

    def test_missing_baseline_exit_code(self, tmp_path):
        assert bench.main(["--workloads", "db", "--systems", "cg",
                           "--repeats", "1",
                           "--check", str(tmp_path / "nope.json")]) == 2


def two_cell_report(wall_cg=0.05, wall_table=0.10, **meta):
    def cell(system, wall):
        return {
            "workload": "bc-arith", "size": 1, "system": system,
            "wall_seconds": wall, "ops": 1000,
            "ops_per_sec": 1000 / wall, "alloc_search_steps": 0,
        }
    report = {"version": bench.BENCH_VERSION, "size": 1, "repeats": 1,
              "entries": [cell("cg", wall_cg), cell("cg-table", wall_table)]}
    report.update(meta)
    return report


class TestTrend:
    def test_identical_generations_pass(self):
        ok, lines = bench.trend(tiny_report(), tiny_report())
        assert ok
        assert any("geomean" in line for line in lines)

    def test_counter_drift_noted_not_failed(self):
        # Between baseline generations the default config legitimately
        # changes (e.g. a new dispatch tier), so ops drift is a note.
        ok, lines = bench.trend(tiny_report(ops=1234), tiny_report())
        assert ok
        assert any("ops changed" in line for line in lines)

    def test_geomean_wall_regression_fails(self):
        ok, lines = bench.trend(tiny_report(wall_seconds=0.08), tiny_report(),
                                tolerance=0.25)
        assert not ok
        assert any("REGRESSION" in line for line in lines)

    def test_new_and_removed_cells_noted(self):
        current = tiny_report()
        current["entries"].append(dict(current["entries"][0],
                                       workload="bc-arith"))
        baseline = tiny_report()
        baseline["entries"].append(dict(baseline["entries"][0],
                                        system="jdk"))
        ok, lines = bench.trend(current, baseline)
        assert ok
        assert any("new cell bc-arith/cg" in line for line in lines)
        assert any("removed cell jess/jdk" in line for line in lines)

    def test_no_shared_cell_fails(self):
        # A trend against a baseline with a disjoint grid compares
        # nothing, so it must not read as a pass.
        ok, lines = bench.trend(tiny_report(), tiny_report(workload="db"))
        assert not ok
        assert any("0 shared cells" in line for line in lines)
        assert any("no cell shared" in line for line in lines)


class TestDispatchSpeedup:
    def test_geomean_over_bc_workloads(self):
        geomean, lines = bench.dispatch_speedup(two_cell_report())
        assert geomean == pytest.approx(2.0)
        assert any("[dispatch-bound]" in line for line in lines)
        assert any("geomean" in line for line in lines)

    def test_mutator_workloads_excluded_from_geomean(self):
        report = two_cell_report()
        # A jess pair with a wild ratio must not move the bc-* geomean.
        for system, wall in (("cg", 0.001), ("cg-table", 1.0)):
            report["entries"].append({
                "workload": "jess", "size": 1, "system": system,
                "wall_seconds": wall, "ops": 500,
                "ops_per_sec": 500 / wall, "alloc_search_steps": 1,
            })
        geomean, lines = bench.dispatch_speedup(report)
        assert geomean == pytest.approx(2.0)
        assert any(line.startswith("jess:") for line in lines)

    def test_no_table_twin_means_no_geomean(self):
        geomean, lines = bench.dispatch_speedup(tiny_report())
        assert geomean is None
        assert lines == []


def ladder_report(ratios):
    """A report with one cg/cg-table pair per ``{workload: ratio}``."""
    entries = []
    for workload, ratio in ratios.items():
        for system, wall in (("cg", 0.1 / ratio), ("cg-table", 0.1)):
            entries.append({
                "workload": workload, "size": 1, "system": system,
                "wall_seconds": wall, "ops": 1000,
                "ops_per_sec": 1000 / wall, "alloc_search_steps": 0,
            })
    return {"version": bench.BENCH_VERSION, "size": 1, "repeats": 1,
            "entries": entries}


class TestDispatchFloor:
    def test_baseline_geomean_below_floor_fails(self):
        low = ladder_report({"bc-arith": 1.5, "bc-list": 1.2})
        ok, lines = bench.check_dispatch_floor(low, low)
        assert not ok
        assert any("baseline" in line and "FAIL" in line for line in lines)

    def test_live_subset_gated_per_workload_not_by_geomean(self):
        # The baseline's geomean clears the floor on the strength of
        # bc-arith; a live --small-style grid carrying only bc-list must
        # be judged against bc-list's own recorded ratio, not the
        # cross-workload geomean it cannot reach.
        base = ladder_report({"bc-arith": 5.0, "bc-list": 1.6})
        live = ladder_report({"bc-list": 1.5})
        ok, lines = bench.check_dispatch_floor(live, base)
        assert ok, lines
        assert any("live bc-list" in line and "ok" in line for line in lines)

    def test_live_regression_past_noise_band_fails(self):
        base = ladder_report({"bc-arith": 5.0, "bc-list": 1.6})
        live = ladder_report({"bc-list": 1.0})  # < 1.6 * 0.75
        ok, lines = bench.check_dispatch_floor(live, base)
        assert not ok
        assert any("live bc-list" in line and "FAIL" in line for line in lines)

    def test_no_ladder_cells_pass_vacuously(self):
        ok, lines = bench.check_dispatch_floor(tiny_report(), tiny_report())
        assert ok
        assert any("not applicable" in line for line in lines)


class TestMainCompare:
    def test_compare_against_older_generation(self, tmp_path, capsys):
        out = str(tmp_path / "old.json")
        assert bench.main(["--workloads", "db", "--systems", "cg",
                           "--repeats", "1", "--out", out]) == 0
        # Same grid re-run as the "new" generation: trend passes even if
        # counters drifted, as long as the wall geomean stays in band.
        assert bench.main(["--workloads", "db", "--systems", "cg",
                           "--repeats", "1", "--compare", out,
                           "--tolerance", "10.0"]) == 0
        assert "trend" in capsys.readouterr().out

    def test_compare_missing_baseline_exit_code(self, tmp_path):
        assert bench.main(["--workloads", "db", "--systems", "cg",
                           "--repeats", "1",
                           "--compare", str(tmp_path / "nope.json")]) == 2
