"""The persistent worker pool: warm workers, stealing, crash tolerance."""

import pytest

from repro.faults import FaultPlan
from repro.harness.pool import (
    PoolJob,
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
    def test_warmup_returns_one_pid_per_worker(self):
        with WorkerPool(3) as pool:
            warm = pool.warmup(timeout=30)
            assert sorted(warm) == [0, 1, 2]
            pids = set(warm.values())
            assert len(pids) == 3
            assert pids == set(pool.worker_pids())

    def test_second_submission_reuses_a_live_warm_worker(self):
        # The whole point of the pool: no respawn between submissions.
        with WorkerPool(2) as pool:
            warm = set(pool.warmup(timeout=30).values())
            first = pool.submit(req("db")).wait(60)
            second = pool.submit(req("jess")).wait(60)
            assert first.status == "done" and second.status == "done"
            assert first.pid in warm
            assert second.pid in warm
            assert pool.stats()["replaced"] == 0


class TestScheduling:
    def test_jobs1_and_jobs4_grids_are_bit_identical(self):
        grid = [req(name) for name in ("db", "jess", "jack", "compress")]
        with WorkerPool(1) as serial:
            one = [strip_wall(j) for j in serial.run(grid)]
        with WorkerPool(4) as wide:
            four = [strip_wall(j) for j in wide.run(grid)]
        assert one == four

    def test_idle_workers_steal_from_a_skewed_shard(self):
        # Pin every job onto worker 0's local deque: worker 1 can only
        # make progress by stealing from its peer's tail.
        with WorkerPool(2) as pool:
            pool.warmup(timeout=30)
            jobs = [pool.submit(req("db", system=system), shard=0)
                    for system in ("cg", "cg-nogc", "jdk", "cg-reset",
                                   "cg-recycle", "jdk-nogc")]
            assert pool.wait(jobs, timeout=120)
            assert all(j.status == "done" for j in jobs)
            stats = pool.stats()
            assert stats["steals"] >= 1
            assert len({j.pid for j in jobs}) == 2

    def test_same_key_single_flights_in_process(self):
        with WorkerPool(2) as pool:
            key = ("db", 1, "cg-nogc", "k")
            a = pool.submit(req("db"), key=key)
            b = pool.submit(req("db"), key=key)
            assert a is b
            a.wait(60)
            assert a.status == "done"
            # Terminal jobs leave the in-flight table: a re-submit is new.
            c = pool.submit(req("db"), key=key)
            assert c is not a
            c.wait(60)
            assert c.status == "done"


class TestCrashTolerance:
    def test_poisoned_cell_quarantined_worker_replaced_queue_drains(self):
        plan = FaultPlan.parse("harness.worker:crash:cell=jess:count=inf")
        with WorkerPool(2) as pool:
            jobs = pool.submit_batch(
                [req(name) for name in ("db", "jess", "jack")],
                plan=plan, retries=1,
            )
            assert pool.wait(jobs, timeout=120)
            by_cell = {request_cell_id(j.request): j for j in jobs}
            poisoned = by_cell["jess:1:cg-nogc"]
            assert poisoned.status == "failed"
            assert poisoned.report.kind == "crash"
            assert poisoned.report.context["attempts"] == 2  # 1 try + 1 retry
            # Every other cell drained despite two worker deaths.
            assert by_cell["db:1:cg-nogc"].status == "done"
            assert by_cell["jack:1:cg-nogc"].status == "done"
            stats = pool.stats()
            assert stats["replaced"] >= 2
            assert stats["queued"] == 0
            # The pool is still serviceable after the replacements.
            assert pool.submit(req("compress")).wait(60).status == "done"

    def test_transient_crash_recovers_on_retry(self):
        plan = FaultPlan.parse("harness.worker:crash:cell=db:count=1")
        with WorkerPool(2) as pool:
            job = pool.submit(req("db"), plan=plan, retries=2).wait(120)
            assert job.status == "done"
            assert job.attempts == 1  # one charged failure, then success
            assert pool.stats()["replaced"] >= 1

    def test_hung_worker_is_killed_and_the_cell_times_out(self):
        plan = FaultPlan.parse(
            "harness.worker:hang:cell=db:seconds=30:count=inf"
        )
        with WorkerPool(1) as pool:
            job = pool.submit(req("db"), plan=plan, timeout=0.5,
                              retries=0).wait(60)
            assert job.status == "failed"
            assert job.report.kind == "hang"
            assert pool.stats()["replaced"] >= 1

    def test_shutdown_fails_stranded_jobs_instead_of_hanging_waiters(self):
        pool = WorkerPool(1)
        plan = FaultPlan.parse(
            "harness.worker:hang:cell=db:seconds=30:count=inf"
        )
        stuck = pool.submit(req("db"), plan=plan, retries=0)
        queued = pool.submit(req("jess"), plan=plan, retries=0)
        pool.shutdown()
        assert stuck.wait(5).status == "failed"
        assert queued.wait(5).status == "failed"
        assert "shut down" in queued.report.message


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
        with WorkerPool(1, cache_dir=str(tmp_path)) as first:
            a = first.submit(req("jess"), key=key).wait(60)
            assert a.status == "done" and not a.cached
        with WorkerPool(1, cache_dir=str(tmp_path)) as second:
            b = second.submit(req("jess"), key=key).wait(60)
            assert b.status == "done" and b.cached
            assert as_stored(b.result_dict) == as_stored(a.result_dict)


class TestJobPlumbing:
    def test_done_callback_fires_even_when_added_late(self):
        with WorkerPool(1) as pool:
            job = pool.submit(req("db")).wait(60)
            seen = []
            job.add_done_callback(seen.append)
            assert seen == [job]

    def test_pool_status_spooled_for_inspect(self, tmp_path):
        with WorkerPool(2, spool=str(tmp_path)) as pool:
            pool.submit(req("db")).wait(60)
        import json

        files = list(tmp_path.glob("pool-*.json"))
        assert len(files) == 1
        status = json.loads(files[0].read_text())
        assert status["kind"] == "pool"
        assert status["phase"] == "final"
        assert status["completed"] >= 1
        assert len(status["workers"]) == 2

    def test_pool_rejects_zero_workers(self):
        with pytest.raises(ValueError):
            WorkerPool(0)
