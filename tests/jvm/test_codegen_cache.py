"""The persistent codegen cache: correctness-neutral, key-invalidated.

The disk level exists so *fresh processes* (warm pool workers, repeated
``serve`` requests) skip source generation for methods a sibling already
compiled.  These tests drive it in-process by clearing the in-memory
level between runtimes — exactly the state a new worker starts in — and
require byte-identical results with and without the cache, hit/miss
accounting on the interpreter, and graceful degradation on corruption.
"""

import json

import pytest

from repro import CGPolicy, Runtime, RuntimeConfig, assemble
from repro.api import RunRequest, execute, request_from_dict, request_to_dict
from repro.jvm import compiledcode
from repro.jvm.compiledcode import (
    _disk_key,
    clear_codegen_caches,
    codegen_cache_dir,
    set_codegen_cache_dir,
)

SOURCE = (
    "class Main\nmethod Main.main(0)\n"
    + "    const 0\n    store 0\n    const 0\n    store 1\n"
    + "loop:\n"
    + "    load 0\n    const 50\n    if_icmpge done\n"
    + "    load 1\n    const 2\n    add\n    store 1\n"
    + "    iinc 0 1\n    goto loop\n"
    + "done:\n    load 1\n    retval\n"
)
EXPECTED = 100


@pytest.fixture
def cache_dir(tmp_path):
    """Arm the disk cache at a temp dir; restore the pristine default."""
    saved = compiledcode._disk_cache_override
    set_codegen_cache_dir(tmp_path)
    clear_codegen_caches()
    yield tmp_path
    compiledcode._disk_cache_override = saved
    clear_codegen_caches()


def run_compiled(**config_kwargs):
    # promote_after=1: every method is codegenned at its first visit.
    config_kwargs.setdefault("cg", CGPolicy(paranoid=True))
    rt = Runtime(RuntimeConfig(dispatch="tiered", promote_after=1,
                               **config_kwargs),
                 program=assemble(SOURCE))
    result = rt.run("Main.main", [])
    return result, rt


class TestDiskRoundTrip:
    def test_miss_then_hit_across_processes(self, cache_dir):
        # First runtime: cold disk, every codegen is a recorded miss that
        # publishes an entry.
        result1, rt1 = run_compiled()
        assert result1 == EXPECTED
        assert rt1.interpreter.codegen_cache_misses > 0
        assert rt1.interpreter.codegen_cache_hits == 0
        entries = list(cache_dir.glob("cg-*.json"))
        assert entries, "miss published no cache entry"

        # Second "process": empty in-memory cache, warm disk.
        clear_codegen_caches()
        result2, rt2 = run_compiled()
        assert result2 == EXPECTED
        assert rt2.interpreter.codegen_cache_hits > 0
        assert rt2.interpreter.methods_codegenned == 0, (
            "a disk hit must skip source generation entirely"
        )

    def test_hit_produces_identical_counters(self, cache_dir):
        result1, rt1 = run_compiled()
        cold = (rt1.interpreter.instructions_executed, rt1.ops,
                rt1.heap.occupancy())
        clear_codegen_caches()
        result2, rt2 = run_compiled()
        warm = (rt2.interpreter.instructions_executed, rt2.ops,
                rt2.heap.occupancy())
        assert result1 == result2 == EXPECTED
        assert cold == warm

    def test_corrupt_entry_degrades_to_miss(self, cache_dir):
        run_compiled()
        entries = list(cache_dir.glob("cg-*.json"))
        for path in entries:
            path.write_text("{not json", encoding="utf-8")
        clear_codegen_caches()
        result, rt = run_compiled()
        assert result == EXPECTED
        assert rt.interpreter.codegen_cache_misses > 0
        # The poisoned files were dropped and republished with good
        # payloads: a third process hits cleanly.
        for path in cache_dir.glob("cg-*.json"):
            json.loads(path.read_text(encoding="utf-8"))

    def test_truncated_marshal_degrades_to_miss(self, cache_dir):
        run_compiled()
        for path in cache_dir.glob("cg-*.json"):
            data = json.loads(path.read_text(encoding="utf-8"))
            data["code"] = data["code"][:8]
            path.write_text(json.dumps(data), encoding="utf-8")
        clear_codegen_caches()
        result, rt = run_compiled()
        assert result == EXPECTED
        assert rt.interpreter.codegen_cache_hits == 0


class TestKeying:
    def test_caps_enter_the_key(self):
        code = [(1, 2, None), (3, None, None)]
        base = _disk_key("Main.main", code, (8, 48))
        assert _disk_key("Main.main", code, (16, 256)) != base
        assert _disk_key("Main.other", code, (8, 48)) != base
        assert _disk_key("Main.main", [(1, 9, None)], (8, 48)) != base

    def test_lifted_recompile_writes_a_second_entry(self, cache_dir):
        # The tiered mode's adaptive recompile uses lifted caps, so its
        # entry must never collide with the default-caps one.  A lone
        # thread gets one dispatch-loop visit per slice, so the visits the
        # recompile waits for come from repeated invokes (each one at
        # least one visit).
        rt = Runtime(RuntimeConfig(dispatch="tiered", promote_after=2,
                                   quantum=64, cg=CGPolicy(paranoid=True)),
                     program=assemble(
                         SOURCE.replace("const 50", "const 4000")))
        assert rt.run("Main.main", []) == 4000 * 2
        for _ in range(rt.interpreter.RECOMPILE_AFTER_VISITS):
            assert rt.invoke("Main.main", []) == 4000 * 2
        assert rt.interpreter.methods_recompiled > 0
        digests = {p.name for p in cache_dir.glob("cg-*.json")}
        assert len(digests) >= 2


class TestArming:
    def test_default_is_disarmed(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_CODEGEN_CACHE", raising=False)
        saved = compiledcode._disk_cache_override
        compiledcode._disk_cache_override = compiledcode._DISK_UNSET
        try:
            assert codegen_cache_dir() is None
            clear_codegen_caches()
            result, rt = run_compiled()
            assert result == EXPECTED
            assert rt.interpreter.codegen_cache_hits == 0
            assert rt.interpreter.codegen_cache_misses == 0
        finally:
            compiledcode._disk_cache_override = saved

    def test_env_knob_arms(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CODEGEN_CACHE", str(tmp_path))
        saved = compiledcode._disk_cache_override
        compiledcode._disk_cache_override = compiledcode._DISK_UNSET
        try:
            assert codegen_cache_dir() == tmp_path
            clear_codegen_caches()
            run_compiled()
            assert list(tmp_path.glob("cg-*.json"))
        finally:
            compiledcode._disk_cache_override = saved
            clear_codegen_caches()

    def test_override_beats_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CODEGEN_CACHE", str(tmp_path / "env"))
        saved = compiledcode._disk_cache_override
        set_codegen_cache_dir(tmp_path / "override")
        try:
            assert codegen_cache_dir() == tmp_path / "override"
            set_codegen_cache_dir(None)
            assert codegen_cache_dir() is None
        finally:
            compiledcode._disk_cache_override = saved


class TestColdStartRequests:
    def test_cold_start_clears_warm_cache(self):
        # Two identical in-process runs share the module-level cache; a
        # cold_start request starts from scratch and pays codegen again.
        warmup = execute(RunRequest("bc-loop", 1, "cg-compiled"))
        warm = execute(RunRequest("bc-loop", 1, "cg-compiled"))
        cold = execute(RunRequest("bc-loop", 1, "cg-compiled",
                                  cold_start=True))
        assert warm.ops == cold.ops == warmup.ops
        warm_gen = warm.metrics["counters"]["vm.compile.codegenned"]
        cold_gen = cold.metrics["counters"]["vm.compile.codegenned"]
        assert warm_gen == 0
        assert cold_gen > 0

    def test_cold_start_round_trips_the_wire(self):
        request = RunRequest("bc-loop", 1, "cg-compiled", cold_start=True)
        restored = request_from_dict(request_to_dict(request))
        assert restored.cold_start is True
        assert request_from_dict(
            request_to_dict(RunRequest("bc-loop", 1, "cg"))
        ).cold_start is False
