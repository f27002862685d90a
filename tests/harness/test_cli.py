"""The CLI's flags: --trace, trace-summary, --metrics, --faults."""

import json

import pytest

from repro.harness import cli, figures
from repro.obs import read_trace


@pytest.fixture(autouse=True)
def fresh_cache():
    figures.clear_cache()
    yield
    figures.clear_cache()
    figures.set_fault_plan(None)


def test_list_names_figures(capsys):
    assert cli.main(["--list"]) == 0
    out = capsys.readouterr().out
    assert "4.1" in out


def test_unknown_figure_rejected(capsys):
    assert cli.main(["99.9"]) == 2
    assert "unknown figure" in capsys.readouterr().err


def test_trace_flag_records_and_exports(tmp_path, capsys):
    path = str(tmp_path / "run.jsonl")
    assert cli.main(["--trace", path, "4.1"]) == 0
    captured = capsys.readouterr()
    assert "[trace]" in captured.err
    meta, events = read_trace(path)
    assert meta["emitted"] > 0
    kinds = {event.kind for event in events}
    assert "new" in kinds
    assert "frame_pop" in kinds


def test_trace_summary_recounts_from_file(tmp_path, capsys):
    path = str(tmp_path / "run.jsonl")
    cli.main(["--trace", path, "4.1"])
    capsys.readouterr()
    assert cli.main(["trace-summary", path]) == 0
    out = capsys.readouterr().out
    assert "objects popped" in out or "frame_pop" in out


def test_metrics_flag_writes_run_records(tmp_path, capsys):
    path = tmp_path / "metrics.json"
    assert cli.main(["--metrics", str(path), "4.1"]) == 0
    records = json.loads(path.read_text())
    assert records, "at least one run should have executed"
    first = records[0]
    assert {"workload", "size", "system", "metrics"} <= set(first)
    assert first["metrics"]["counters"]["vm.ops"] > 0


def test_failing_figure_is_one_stderr_line(capsys):
    # Every allocation from the 101st on fails, past what the recovery
    # cascade can absorb: the figure is skipped and the exit code says so.
    assert cli.main(["4.2", "--faults",
                     "heap.alloc:oom:after=100:count=inf"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("[skip] figure 4.2: OutOfMemoryError: ")
    assert len(err.splitlines()) == 1
    assert "Traceback" not in err
    # One failure the cascade recovers from leaves the figure intact.
    assert cli.main(["4.2", "--faults", "heap.alloc:oom:after=1000"]) == 0
    captured = capsys.readouterr()
    assert "Fig 4.2" in captured.out
    assert "[skip]" not in captured.err
