"""The worker pool: warm workers, one batch per call, crash tolerance."""

import threading

import pytest

from repro.faults import FaultPlan
from repro.harness import pool as pool_mod
from repro.harness.pool import (
    ResultCache,
    WorkerPool,
    execute_request,
    request_cell_id,
)


def req(workload="db", size=1, system="cg-nogc", **extra):
    request = {"workload": workload, "size": size, "system": system}
    request.update(extra)
    return request


def strip_wall(job):
    """The comparable payload of a done job (wall clock is never compared)."""
    assert job.status == "done", job.report
    return {k: v for k, v in job.result_dict.items() if k != "wall_seconds"}


def as_stored(result_dict):
    """A result dict as the disk cache returns it (JSON degrades int keys)."""
    import json

    data = json.loads(json.dumps(result_dict))
    data.pop("wall_seconds", None)
    return data


class TestWarmWorkers:
    def test_second_submission_reuses_a_live_warm_worker(self):
        # The whole point of the pool: no respawn between batches.
        with WorkerPool(2) as pool:
            first = pool.run([req("db"), req("jess")])
            second = pool.run([req("jack"), req("compress")])
            assert all(j.status == "done" for j in first + second)
            warm = {j.pid for j in first}
            assert len(warm) == 2
            assert {j.pid for j in second} <= warm
            assert pool.replaced == 0


class TestScheduling:
    def test_jobs1_and_jobs4_grids_are_bit_identical(self):
        grid = [req(name) for name in ("db", "jess", "jack", "compress")]
        with WorkerPool(1) as serial:
            one = [strip_wall(j) for j in serial.run(grid)]
        with WorkerPool(4) as wide:
            four = [strip_wall(j) for j in wide.run(grid)]
        assert one == four


class ExplodingPlan:
    """A fault plan whose worker-injection hook raises mid-batch."""

    def worker_injection(self, cell_id, attempt):
        raise KeyboardInterrupt


class TestCrashTolerance:
    def test_poisoned_cell_quarantined_worker_replaced_queue_drains(self):
        plan = FaultPlan.parse("harness.worker:crash:cell=jess:count=inf")
        with WorkerPool(2) as pool:
            jobs = pool.run([req(name) for name in ("db", "jess", "jack")],
                            plan=plan, retries=1)
            by_cell = {request_cell_id(j.request): j for j in jobs}
            poisoned = by_cell["jess:1:cg-nogc"]
            assert poisoned.status == "failed"
            assert poisoned.report.kind == "crash"
            assert poisoned.report.context["attempts"] == 2  # 1 try + 1 retry
            # Every other cell drained despite two worker deaths.
            assert by_cell["db:1:cg-nogc"].status == "done"
            assert by_cell["jack:1:cg-nogc"].status == "done"
            assert by_cell["db:1:cg-nogc"].report is None
            assert pool.replaced >= 2
            # The pool is still serviceable after the replacements.
            (job,) = pool.run([req("compress")])
            assert job.status == "done"

    def test_transient_crash_recovers_on_retry(self):
        plan = FaultPlan.parse("harness.worker:crash:cell=db:count=1")
        with WorkerPool(2) as pool:
            (job,) = pool.run([req("db")], plan=plan, retries=2)
            assert job.status == "done"
            assert job.attempts == 1  # one charged failure, then success
            assert pool.replaced >= 1

    def test_hung_worker_is_killed_and_the_cell_times_out(self):
        plan = FaultPlan.parse(
            "harness.worker:hang:cell=db:seconds=30:count=inf"
        )
        with WorkerPool(1) as pool:
            (job,) = pool.run([req("db")], plan=plan, timeout=0.5,
                              retries=0)
            assert job.status == "failed"
            assert job.report.kind == "hang"
            assert pool.replaced >= 1

    def test_exception_in_run_closes_the_pool(self):
        shared = pool_mod.get_shared_pool(1)
        try:
            with pytest.raises(KeyboardInterrupt):
                shared.run([req("db")], plan=ExplodingPlan())
            assert shared.closed
            assert not any(w.proc.is_alive() for w in shared._workers)
            with pytest.raises(RuntimeError, match="shut down"):
                shared.run([req("db")])
            fresh = pool_mod.get_shared_pool(1)
            assert fresh is not shared
            (job,) = fresh.run([req("db")])
            assert job.status == "done"
        finally:
            pool_mod.shutdown_shared_pool()


class TestSharedResultCache:
    def test_execute_request_single_flights_through_the_disk_cache(self, tmp_path):
        key = ("db", 1, "cg-nogc", "fingerprint", False)
        first, cached_first, wall = execute_request(
            req("db"), key=key, cache_dir=str(tmp_path)
        )
        assert not cached_first and wall > 0
        second, cached_second, wall2 = execute_request(
            req("db"), key=key, cache_dir=str(tmp_path)
        )
        assert cached_second and wall2 == 0.0
        assert as_stored(second) == as_stored(first)
        cache = ResultCache(tmp_path)
        assert as_stored(cache.load(key)) == as_stored(first)
        assert cache.path_for(key).exists()

    def test_two_pools_share_one_cache_directory(self, tmp_path):
        key = ("jess", 1, "cg-nogc", "fingerprint", False)
        with WorkerPool(1) as first:
            (a,) = first.run([req("jess")], keys=[key],
                             cache_dir=str(tmp_path))
            assert a.status == "done" and not a.cached
        with WorkerPool(1) as second:
            (b,) = second.run([req("jess")], keys=[key],
                              cache_dir=str(tmp_path))
            assert b.status == "done" and b.cached
            assert as_stored(b.result_dict) == as_stored(a.result_dict)


class TestJobPlumbing:
    def test_pool_rejects_zero_workers(self):
        with pytest.raises(ValueError):
            WorkerPool(0)

    def test_pool_starts_no_thread(self):
        before = threading.active_count()
        with WorkerPool(2) as pool:
            assert threading.active_count() == before
            (job,) = pool.run([req("db")])
            assert job.status == "done"
            assert threading.active_count() == before
