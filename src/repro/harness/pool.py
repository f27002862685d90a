"""Worker pool: run a batch of run requests on warm worker processes.

The figure prefetch and :func:`repro.api.run_many` each hand the pool
one batch of :class:`~repro.api.RunRequest`-shaped dicts and wait for
all of it.  :meth:`WorkerPool.run` is that call: it drives the batch to
completion on the caller's thread and returns one :class:`PoolJob` per
request, in request order.  The pool starts no thread; its workers are
long-lived processes, reused by every batch.

Scheduling
    One FIFO queue per batch.  Each pass of the loop hands the oldest
    eligible job to every idle worker, waits on the worker pipes and
    process sentinels (until the nearest timeout or retry backoff, and
    at most :data:`_TICK`), then reads the replies.

Crash tolerance
    A worker that dies (including a deliberate ``harness.worker:crash``
    injection, which ``os._exit``\\ s the worker) is detected via its
    process sentinel, its job is charged a failed attempt, and a
    replacement worker is spawned.  Hangs are bounded by a per-job
    timeout: the worker is killed and replaced the same way.  A failed
    attempt is retried after an exponential backoff; a job that exhausts
    ``1 + retries`` attempts fails with a structured
    :class:`~repro.faults.FaultReport`, and the rest of the batch still
    completes.

Shared result cache
    With a ``cache_dir`` armed, each keyed job goes through
    :class:`ResultCache` (the same files ``figures`` always wrote),
    guarded by a per-entry ``flock``: a worker that misses takes the
    entry lock, re-checks, computes, stores, releases — two pools on one
    cache directory never run the same cell twice.

Warm starts
    Workers pre-import :data:`WARM_IMPORTS` at spawn, so the first job
    pays no import tax, and later batches reuse the same processes.
"""

from __future__ import annotations

import atexit
import hashlib
import json
import os
import time
from collections import deque
from contextlib import contextmanager
from multiprocessing import connection as mp_connection
from pathlib import Path
from typing import Deque, Dict, List, Optional, Sequence, Tuple

try:  # POSIX only; the cache degrades to lock-free writes elsewhere.
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX
    fcntl = None

from ..faults import FaultPlan, FaultReport

#: Bump when run semantics change in a way that invalidates stored
#: results.  v2: keys grew the RuntimeConfig fingerprint (this is the
#: same versioning — and the same on-disk files — as the figure cache
#: this class was promoted from).  v3: keys grew the workload-params
#: axis (``RunRequest.params``) and results the ``params``/``latency``
#: sections.
#: v4: the tiered-dispatch default flip (RuntimeConfig fingerprints grew
#: ``promote_after``/``promote_backedge_weight``) plus the request-level
#: ``cold_start`` wire field and the ``compile_ms`` latency percentiles.
CACHE_VERSION = 4

#: Retry backoff base (seconds); attempt N becomes eligible again after
#: ``base * 2**(N-1)``, capped at 2s.
BACKOFF_BASE = 0.1
BACKOFF_CAP = 2.0

#: Longest wait of one loop pass when nothing else bounds it (seconds).
_TICK = 0.05


# ---------------------------------------------------------------------------
# The shared result cache (cross-process, file-locked, single-flight)
# ---------------------------------------------------------------------------

class ResultCache:
    """The on-disk result cache, shared across processes.

    Entries are the exact files :mod:`repro.harness.figures` always wrote
    (``sha1([CACHE_VERSION, *key]).json`` holding a
    :func:`~repro.api.result_to_dict` payload), so existing caches stay
    valid.  Writes go through a temp file + ``os.replace`` (atomic), and
    :meth:`lock` takes a per-entry ``flock`` so concurrent pools
    single-flight each cell — the lock holder computes, everyone else
    re-checks the entry after the lock drops.  A crashed holder releases
    the flock with its process, so the cache can never deadlock.
    """

    def __init__(self, root: "os.PathLike[str]") -> None:
        self.root = Path(root)

    def path_for(self, key: Tuple) -> Path:
        digest = hashlib.sha1(
            json.dumps([CACHE_VERSION, *key]).encode()
        ).hexdigest()
        return self.root / f"{digest}.json"

    def load(self, key: Tuple) -> Optional[Dict]:
        path = self.path_for(key)
        try:
            with path.open() as fh:
                data = json.load(fh)
        except (OSError, ValueError):
            return None
        return data if isinstance(data, dict) else None

    def store(self, key: Tuple, result_dict: Dict) -> None:
        path = self.path_for(key)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp = path.with_suffix(".tmp")
            with tmp.open("w") as fh:
                json.dump(result_dict, fh)
            tmp.replace(path)
        except OSError:
            # A full disk or vanished directory costs a recompute later,
            # never the run that just finished.
            pass

    @contextmanager
    def lock(self, key: Tuple):
        """Hold the per-entry flock (single-flight across processes)."""
        if fcntl is None:
            yield
            return
        lock_path = self.path_for(key).with_suffix(".lock")
        try:
            lock_path.parent.mkdir(parents=True, exist_ok=True)
            fh = open(lock_path, "a+")
        except OSError:
            yield
            return
        try:
            fcntl.flock(fh.fileno(), fcntl.LOCK_EX)
            yield
        finally:
            try:
                fcntl.flock(fh.fileno(), fcntl.LOCK_UN)
            except OSError:
                pass
            fh.close()


# ---------------------------------------------------------------------------
# Jobs
# ---------------------------------------------------------------------------

def request_cell_id(request: Dict) -> str:
    """Human-readable cell id (``workload:size:system``) for a request."""
    return (f"{request.get('workload', '?')}:{request.get('size', '?')}"
            f":{request.get('system', '?')}")


class PoolJob:
    """One request of a batch and its outcome.

    :meth:`WorkerPool.run` returns every job ``done`` (``result_dict``
    holds the :func:`~repro.api.result_to_dict` payload) or ``failed``
    (``report`` holds the :class:`~repro.faults.FaultReport` of its last
    attempt).  ``attempts`` counts the failed attempts.
    """

    __slots__ = (
        "request", "key", "status", "attempts", "result_dict", "report",
        "cached", "pid", "wall_seconds", "eligible_at",
    )

    def __init__(self, request: Dict, key: Optional[Tuple] = None) -> None:
        self.request = dict(request)
        self.key = key
        self.status = "pending"
        self.attempts = 0
        self.result_dict: Optional[Dict] = None
        self.report: Optional[FaultReport] = None
        self.cached = False
        self.pid: Optional[int] = None
        self.wall_seconds: Optional[float] = None
        self.eligible_at = 0.0

    @property
    def cell_id(self) -> str:
        return request_cell_id(self.request)

    def __repr__(self) -> str:
        return (f"<PoolJob {self.cell_id} {self.status}"
                f" attempts={self.attempts}>")


# ---------------------------------------------------------------------------
# The worker side (runs in the child process)
# ---------------------------------------------------------------------------

#: Modules a worker imports once at spawn so the first job pays no
#: import/compile tax (the "warm VM" half of the warm-worker story).
WARM_IMPORTS = ("repro.workloads", "repro.jvm", "repro.api")


def _warm_imports() -> None:
    import importlib

    for name in WARM_IMPORTS:
        importlib.import_module(name)


def execute_request(request: Dict, *, key: Optional[Tuple] = None,
                    cache_dir: Optional[str] = None) -> Tuple[Dict, bool, float]:
    """The worker's leaf: run one request, through the shared cache.

    Returns ``(result_dict, cached, wall_seconds)``.  With a cache armed
    the sequence is load → lock → re-check → compute → store, which is
    the cross-process single-flight: whoever holds the entry lock
    computes, everyone else finds the entry on re-check.
    """
    from ..api import execute, request_from_dict, result_to_dict

    cache = ResultCache(cache_dir) if cache_dir and key is not None else None
    if cache is not None:
        hit = cache.load(key)
        if hit is not None:
            return hit, True, 0.0

    def compute() -> Tuple[Dict, float]:
        started = time.perf_counter()
        result = execute(request_from_dict(request))
        wall = time.perf_counter() - started
        return result_to_dict(result), wall

    if cache is None:
        data, wall = compute()
        return data, False, wall
    with cache.lock(key):
        hit = cache.load(key)
        if hit is not None:
            return hit, True, 0.0
        data, wall = compute()
        cache.store(key, data)
    return data, False, wall


def _apply_injection(inject: Optional[Dict]) -> None:
    """Honor a ``harness.worker`` sabotage inside the worker process.

    ``crash`` is a *real* crash — ``os._exit`` — because the pool's
    whole point is that a dead worker is detected and replaced; ``hang``
    sleeps (so per-job timeouts and patient waits both get exercised)
    and then proceeds.
    """
    if not inject:
        return
    if inject["kind"] == "hang":
        time.sleep(float(inject.get("seconds", 2.0)))
        return
    os._exit(3)


def _worker_main(conn) -> None:
    """Worker loop: receive a job, run it, reply.  ``None`` stops it."""
    from ..faults import FaultError

    _warm_imports()
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            return
        if msg is None:
            return
        request, key, cache_dir, inject = msg
        try:
            _apply_injection(inject)
            data, cached, wall = execute_request(
                request, key=key, cache_dir=cache_dir
            )
            conn.send(("done", data, cached, wall))
        except FaultError as exc:
            conn.send(("error", exc.report.to_dict()))
        except BaseException as exc:  # noqa: BLE001 - report, don't die
            report = FaultReport(
                site="harness.worker", kind="crash",
                message=f"{type(exc).__name__}: {exc}",
                context={"cell": request_cell_id(request)},
            )
            try:
                conn.send(("error", report.to_dict()))
            except (BrokenPipeError, OSError):
                return


# ---------------------------------------------------------------------------
# The pool
# ---------------------------------------------------------------------------

def _mp_context():
    import multiprocessing as mp

    methods = mp.get_all_start_methods()
    return mp.get_context("fork" if "fork" in methods else "spawn")


class _Worker:
    """Parent-side handle: process + duplex pipe + the job it is running."""

    __slots__ = ("proc", "conn", "job", "deadline")

    def __init__(self, ctx) -> None:
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        self.proc = ctx.Process(target=_worker_main, args=(child_conn,),
                                name="repro-pool-worker", daemon=True)
        self.proc.start()
        child_conn.close()
        self.conn = parent_conn
        self.job: Optional[PoolJob] = None
        self.deadline: Optional[float] = None

    @property
    def pid(self) -> Optional[int]:
        return self.proc.pid

    def kill(self) -> None:
        try:
            self.proc.kill()
        except (OSError, AttributeError):
            pass
        try:
            self.proc.join(timeout=1.0)
        except (OSError, AssertionError):
            pass
        try:
            self.conn.close()
        except OSError:
            pass


class WorkerPool:
    """``jobs`` warm worker processes that run one batch at a time."""

    def __init__(self, jobs: int = 2) -> None:
        if jobs < 1:
            raise ValueError("a pool needs at least one worker")
        self.jobs = int(jobs)
        self.replaced = 0
        self.closed = False
        self._ctx = _mp_context()
        self._workers: List[_Worker] = [
            _Worker(self._ctx) for _ in range(self.jobs)
        ]
        atexit.register(self.shutdown)

    def run(self, requests: Sequence[Dict], *,
            keys: Optional[Sequence[Optional[Tuple]]] = None,
            plan: Optional[FaultPlan] = None,
            timeout: Optional[float] = None,
            retries: int = 2,
            cache_dir: Optional[str] = None) -> List[PoolJob]:
        """Run ``requests`` to completion; one job per request, in order.

        ``keys`` (one per request) are result-cache keys, used when
        ``cache_dir`` is set.  ``plan``'s ``harness.worker`` specs
        sabotage chosen attempts; ``timeout`` bounds each attempt in
        seconds; each job gets ``1 + retries`` attempts.  If anything
        raises out of the loop, the pool is shut down first.
        """
        if self.closed:
            raise RuntimeError("the pool is shut down")
        jobs = [PoolJob(request, None if keys is None else keys[i])
                for i, request in enumerate(requests)]
        queue: Deque[PoolJob] = deque(jobs)
        retries = max(0, int(retries))
        try:
            while queue or any(w.job is not None for w in self._workers):
                self._assign(queue, plan, timeout, cache_dir)
                self._wait(queue)
                self._reap(queue, timeout, retries)
        except BaseException:
            self.shutdown()
            raise
        return jobs

    def shutdown(self, timeout: float = 2.0) -> None:
        """Stop and reap every worker.  Idempotent."""
        if self.closed:
            return
        self.closed = True
        atexit.unregister(self.shutdown)
        for worker in self._workers:
            try:
                worker.conn.send(None)
            except (BrokenPipeError, OSError):
                pass
        for worker in self._workers:
            worker.proc.join(timeout=timeout)
            worker.kill()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()

    # -- one loop pass ---------------------------------------------------

    def _assign(self, queue: Deque[PoolJob], plan: Optional[FaultPlan],
                timeout: Optional[float], cache_dir: Optional[str]) -> None:
        """Hand the oldest eligible job to each idle live worker."""
        now = time.monotonic()
        for worker in self._workers:
            if worker.job is not None or not worker.proc.is_alive():
                continue
            job = next((j for j in queue if j.eligible_at <= now), None)
            if job is None:
                return
            queue.remove(job)
            inject = None
            if plan is not None:
                spec = plan.worker_injection(job.cell_id, job.attempts)
                if spec is not None:
                    inject = {"kind": spec.kind, "seconds": spec.seconds,
                              "cell": job.cell_id, "attempt": job.attempts}
            try:
                worker.conn.send((job.request, job.key, cache_dir, inject))
            except (BrokenPipeError, OSError):
                # The worker died since the last pass; _reap replaces it.
                # Requeue rather than charging an attempt the job never got.
                queue.appendleft(job)
                continue
            job.status = "running"
            worker.job = job
            worker.deadline = None if timeout is None else now + timeout

    def _wait(self, queue: Deque[PoolJob]) -> None:
        """Block until a reply, a death, a deadline or a backoff ends."""
        now = time.monotonic()
        wait = _TICK
        waitables: List = []
        for worker in self._workers:
            waitables += (worker.conn, worker.proc.sentinel)
            if worker.deadline is not None:
                wait = min(wait, worker.deadline - now)
        for job in queue:
            if job.eligible_at > now:
                wait = min(wait, job.eligible_at - now)
        try:
            mp_connection.wait(waitables, timeout=max(0.0, wait))
        except OSError:
            pass

    def _reap(self, queue: Deque[PoolJob], timeout: Optional[float],
              retries: int) -> None:
        """Read replies; replace dead and timed-out workers."""
        now = time.monotonic()
        for index, worker in enumerate(self._workers):
            while worker.job is not None:
                try:
                    if not worker.conn.poll():
                        break
                    msg = worker.conn.recv()
                except (EOFError, OSError):
                    break  # a death; handled below
                job, worker.job, worker.deadline = worker.job, None, None
                job.pid = worker.pid
                if msg[0] == "done":
                    _, job.result_dict, job.cached, job.wall_seconds = msg
                    job.status = "done"
                else:
                    self._attempt_failed(job, FaultReport(**msg[1]),
                                         queue, retries)
            alive = worker.proc.is_alive()
            if alive and (worker.deadline is None or now <= worker.deadline):
                continue
            job, exitcode = worker.job, worker.proc.exitcode
            worker.kill()
            self._workers[index] = _Worker(self._ctx)
            self.replaced += 1
            if job is None:
                continue
            job.pid = worker.pid
            if alive:
                kind = "hang"
                message = (f"worker pid={worker.pid} timed out after "
                           f"{timeout:g}s on cell {job.cell_id}")
            else:
                kind = "crash"
                message = (f"worker pid={worker.pid} died "
                           f"(exit {exitcode}) running cell {job.cell_id}")
            self._attempt_failed(job, FaultReport(
                site="harness.worker", kind=kind, message=message,
                context={"cell": job.cell_id},
            ), queue, retries)

    @staticmethod
    def _attempt_failed(job: PoolJob, report: FaultReport,
                        queue: Deque[PoolJob], retries: int) -> None:
        job.attempts += 1
        report.context = dict(report.context, cell=job.cell_id,
                              attempts=job.attempts)
        if job.attempts > retries:
            job.status = "failed"
            job.report = report
            return
        backoff = min(BACKOFF_CAP, BACKOFF_BASE * (2 ** (job.attempts - 1)))
        job.eligible_at = time.monotonic() + backoff
        job.status = "pending"
        queue.append(job)


# ---------------------------------------------------------------------------
# The shared pool (one per process, reused across prefetch and api calls)
# ---------------------------------------------------------------------------

_SHARED: Optional[WorkerPool] = None


def get_shared_pool(jobs: int) -> WorkerPool:
    """The process-wide pool, created on first use and kept warm.

    Reused while it is open and the requested worker count matches;
    otherwise the old pool is shut down and a fresh one built (the
    harness CLI only ever runs one ``--jobs`` setting per process).
    """
    global _SHARED
    if _SHARED is not None and (_SHARED.jobs != jobs or _SHARED.closed):
        _SHARED.shutdown()
        _SHARED = None
    if _SHARED is None:
        _SHARED = WorkerPool(jobs)
    return _SHARED


def shutdown_shared_pool() -> None:
    """Tear down the process-wide pool (tests and clean exits)."""
    global _SHARED
    if _SHARED is not None:
        _SHARED.shutdown()
        _SHARED = None
