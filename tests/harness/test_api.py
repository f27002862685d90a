"""repro.api: the single run entrypoint, shims, validation, cache keys."""

import pytest

import repro
from repro import api
from repro.api import RunRequest, RunResult, WorkloadSpec, config_for, run
from repro.faults import FaultPlan
from repro.harness import figures as figures_mod
from repro.jvm.runtime import RuntimeConfig


class TestSingleEntrypoint:
    def test_run_is_exported_at_package_root(self):
        assert repro.run is run
        assert repro.RunRequest is RunRequest
        assert repro.RunResult is RunResult

    def test_run_request_equals_keyword_run(self):
        via_kwargs = run("db", 1, "cg")
        via_request = api.execute(RunRequest("db", 1, "cg"))
        assert via_request.ops == via_kwargs.ops
        assert via_request.cg_stats == via_kwargs.cg_stats
        assert via_request.heap_words == via_kwargs.heap_words

    def test_explicit_config_path(self):
        config = config_for("cg", 1 << 20)
        result = run("db", 1, "cg", config=config)
        baseline = run("db", 1, "cg", heap_words=1 << 20)
        assert result.ops == baseline.ops
        assert result.alloc_search_steps == baseline.alloc_search_steps

    def test_faults_threaded_through_run(self):
        plan = FaultPlan.parse("heap.alloc:oom:after=1000000000")
        armed = run("db", 1, "cg", faults=plan)
        clean = run("db", 1, "cg")
        # An armed-but-never-firing plan is invisible in the results.
        assert armed.ops == clean.ops
        assert armed.alloc_search_steps == clean.alloc_search_steps
        assert armed.cg_stats == clean.cg_stats


class TestRequestSerialization:
    def test_round_trip_preserves_every_wire_field(self):
        plan = FaultPlan.parse("heap.alloc:oom:after=1000000000")
        original = RunRequest("jess", 2, "cg-nogc", heap_words=1 << 18,
                              gc_period_ops=700, seed=17, profile=True,
                              heartbeat_every=300, cold_start=True,
                              faults=plan)
        restored = api.request_from_dict(api.request_to_dict(original))
        for field in api._REQUEST_FIELDS:
            assert getattr(restored, field) == getattr(original, field)
        assert restored.faults.fingerprint() == plan.fingerprint()

    def test_wire_form_is_json_clean(self):
        import json

        data = api.request_to_dict(RunRequest("db", 1, "cg"))
        assert json.loads(json.dumps(data)) == data

    def test_live_tracer_and_prebuilt_config_are_rejected(self):
        from repro.obs.events import Tracer

        with pytest.raises(ValueError, match="tracer"):
            api.request_to_dict(RunRequest("db", 1, "cg", tracer=Tracer()))
        with pytest.raises(ValueError, match="config"):
            api.request_to_dict(RunRequest(
                "db", 1, "cg", config=RuntimeConfig()))

    def test_workload_objects_are_rejected(self):
        from repro.workloads import get_workload

        with pytest.raises(ValueError, match="named workloads"):
            api.request_to_dict(RunRequest(get_workload("db"), 1, "cg"))


class TestWorkloadSpec:
    def test_spec_round_trips_through_wire_form(self):
        original = RunRequest(
            WorkloadSpec("server", {"pattern": "bursty"}),
            system="cg", requests=25, profile=True,
        )
        data = api.request_to_dict(original)
        assert data["workload"] == {"name": "server",
                                    "params": {"pattern": "bursty"}}
        restored = api.request_from_dict(data)
        assert isinstance(restored.workload, WorkloadSpec)
        assert restored.workload == original.workload
        assert restored.requests == 25

    def test_spec_and_equivalent_params_run_identically(self):
        via_spec = api.execute(RunRequest(
            WorkloadSpec("server", {"pattern": "bursty"}),
            system="cg", requests=50))
        via_params = api.execute(RunRequest(
            "server", system="cg", requests=50,
            params={"pattern": "bursty"}))
        assert via_spec.ops == via_params.ops
        assert via_spec.cg_stats == via_params.cg_stats
        assert via_spec.params == via_params.params

    def test_request_params_override_spec_params(self):
        request = RunRequest(WorkloadSpec("server", {"spin": 10}),
                             requests=5, params={"spin": 20})
        assert request.resolve_workload().params["spin"] == 20

    def test_result_carries_resolved_params(self):
        result = api.execute(RunRequest("server", system="cg", requests=25))
        assert result.params["requests"] == 25
        assert result.params["pattern"] == "steady"  # schema default
        restored = api.result_from_dict(api.result_to_dict(result))
        assert restored.params == result.params
        assert restored.latency == result.latency


class TestTerminationPolicy:
    def test_requests_on_batch_workload_rejected(self):
        with pytest.raises(ValueError, match="batch workload"):
            RunRequest("db", system="cg", requests=100).resolve_workload()

    def test_max_ops_on_batch_workload_rejected(self):
        with pytest.raises(ValueError, match="batch workload"):
            RunRequest("db", system="cg", max_ops=100).resolve_workload()

    def test_size_and_requests_together_rejected(self):
        with pytest.raises(ValueError, match="not both"):
            RunRequest("server", size=1, requests=100).resolve_workload()

    def test_params_on_live_workload_instance_rejected(self):
        from repro.workloads import get_workload

        with pytest.raises(ValueError, match="live Workload instance"):
            RunRequest(get_workload("db"), requests=5).resolve_workload()

    def test_batch_size_still_defaults_to_one(self):
        assert run("db").size == 1

    def test_open_ended_size_label_is_zero(self):
        assert run("server", system="cg", requests=25).size == 0


class TestCacheVersioning:
    def test_cache_version_bumped_for_tiered_default(self):
        from repro.harness.pool import CACHE_VERSION

        assert CACHE_VERSION == 4


class TestRunMany:
    def test_pooled_batch_matches_in_process_runs(self):
        from repro.harness.pool import shutdown_shared_pool

        requests = [RunRequest(name, 1, "cg-nogc")
                    for name in ("db", "jess")]
        try:
            pooled = api.run_many(requests, jobs=2)
        finally:
            shutdown_shared_pool()
        direct = [api.execute(r) for r in requests]
        assert [r.ops for r in pooled] == [r.ops for r in direct]
        assert [r.cg_stats for r in pooled] == [r.cg_stats for r in direct]

    def test_single_request_runs_in_process(self):
        (result,) = api.run_many([RunRequest("db", 1, "cg-nogc")], jobs=1)
        assert result.ops == run("db", 1, "cg-nogc").ops


class TestRunnerShimGone:
    def test_runner_module_is_deleted(self):
        # PR 7 removed the PR-4 deprecation shim; repro.api is the only
        # entrypoint now.
        with pytest.raises(ModuleNotFoundError):
            import repro.harness.runner  # noqa: F401

    def test_old_names_live_on_the_facade(self):
        from repro.api import (  # noqa: F401
            BIG_HEAP_WORDS,
            SYSTEMS,
            RunResult,
            config_for,
            result_from_dict,
            result_to_dict,
        )

        assert "cg" in SYSTEMS


class TestConfigValidation:
    def test_unknown_system_suggests_close_match(self):
        with pytest.raises(ValueError, match="unknown system") as excinfo:
            config_for("cg-nogcc", 1 << 20)
        assert "did you mean 'cg-nogc'" in str(excinfo.value)

    def test_unknown_dispatch_suggests_close_match(self):
        with pytest.raises(ValueError, match="did you mean 'table'"):
            RuntimeConfig(dispatch="tabel")

    def test_unknown_tracing_suggests_close_match(self):
        with pytest.raises(ValueError, match="did you mean 'marksweep'"):
            RuntimeConfig(tracing="marksweeps")

    def test_hopeless_typo_gets_no_suggestion(self):
        with pytest.raises(ValueError) as excinfo:
            RuntimeConfig(tracing="zzzzzz")
        assert "did you mean" not in str(excinfo.value)

    def test_dispatch_mutated_after_construction_caught(self):
        # __post_init__ ran with a valid value; the (lazily built)
        # interpreter re-checks so the typo cannot fall through to some
        # arbitrary mode silently.
        from repro import Runtime

        config = RuntimeConfig()
        config.dispatch = "tables"
        rt = Runtime(config)
        with pytest.raises(ValueError, match="did you mean 'table'"):
            rt.interpreter

    def test_repro_dispatch_env_junk_rejected(self, monkeypatch):
        # The env knob feeds the config default, so junk — including the
        # names of deleted dispatch modes — is caught by the same
        # validation.
        monkeypatch.setenv("REPRO_DISPATCH", "compiled")
        with pytest.raises(ValueError, match="dispatch must be one of"):
            RuntimeConfig()

    def test_repro_dispatch_env_tiered_typo_rejected(self, monkeypatch):
        # The default mode is in the registry the env knob validates
        # against, so its typos get the same did-you-mean treatment.
        monkeypatch.setenv("REPRO_DISPATCH", "teired")
        with pytest.raises(ValueError, match="did you mean 'tiered'"):
            RuntimeConfig()

    def test_promotion_knobs_validated(self):
        with pytest.raises(ValueError, match="promote_after"):
            RuntimeConfig(promote_after=0)

    @pytest.mark.parametrize("period", [0, -3])
    def test_gc_period_below_one_rejected(self, period):
        # A period below one would collect at every op, and the next due
        # op would never move past ``ops``.
        with pytest.raises(ValueError, match="gc_period_ops must be >= 1"):
            RuntimeConfig(gc_period_ops=period)
        with pytest.raises(ValueError, match="gc_period_ops must be >= 1"):
            run("bc-calls", 1, "cg", gc_period_ops=period)

    def test_cg_reset_maps_period_zero_to_its_default(self):
        config = config_for("cg-reset", 1 << 20, 0)
        assert config.gc_period_ops == api.RESET_PERIOD_OPS


class TestConfigFingerprint:
    def test_fingerprint_covers_dispatch_faults(self):
        base = RuntimeConfig()
        # Explicit modes, not the default: REPRO_DISPATCH may redefine it.
        assert RuntimeConfig(dispatch="table").fingerprint() != RuntimeConfig(
            dispatch="tiered").fingerprint()
        plan = FaultPlan.parse("heap.alloc:oom:after=7")
        assert base.fingerprint() != RuntimeConfig(
            faults=plan).fingerprint()

    def test_fingerprint_covers_promotion_knobs(self):
        # Promotion timing never changes counters, but the threshold is
        # config (run identity), not observation — it always enters the
        # fingerprint, whatever the dispatch mode.
        base = RuntimeConfig()
        assert base.fingerprint() != RuntimeConfig(
            promote_after=7).fingerprint()

    def test_fingerprint_excludes_observers_and_heap(self):
        base = RuntimeConfig()
        assert base.fingerprint() == RuntimeConfig(
            heap_words=1 << 10).fingerprint()
        assert base.fingerprint() == RuntimeConfig(profile=True).fingerprint()


class TestCacheKeyedByFingerprint:
    def setup_method(self):
        figures_mod.clear_cache()
        figures_mod.set_fault_plan(None)

    def teardown_method(self):
        figures_mod.clear_cache()
        figures_mod.set_fault_plan(None)
        figures_mod.set_result_cache(None)

    def test_armed_plan_never_serves_stale_clean_result(
            self, tmp_path, monkeypatch):
        figures_mod.set_result_cache(str(tmp_path))
        calls = []
        real = figures_mod.api_run

        def counting(*args, **kwargs):
            calls.append(kwargs.get("faults"))
            return real(*args, **kwargs)

        monkeypatch.setattr(figures_mod, "api_run", counting)

        figures_mod.cached_run("db", 1, "cg")
        assert len(calls) == 1
        figures_mod.clear_cache()
        figures_mod.cached_run("db", 1, "cg")
        assert len(calls) == 1  # disk hit: same fingerprint

        plan = FaultPlan.parse("heap.alloc:oom:after=1000000000")
        figures_mod.set_fault_plan(plan)
        figures_mod.cached_run("db", 1, "cg")
        assert len(calls) == 2  # the armed plan forces a fresh run
        assert calls[1] is plan
        assert len(list(tmp_path.iterdir())) == 2  # two distinct entries
