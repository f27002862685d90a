"""Persistent worker pool: warm VM workers behind a work-stealing scheduler.

Until this module existed the harness was a batch script: ``prefetch``
fanned each figure grid out over a throwaway two-wave
``ProcessPoolExecutor``, respawning cold workers per wave and per
invocation.  The :class:`WorkerPool` replaces that with the shape the
north star needs — a *service*: a fixed set of long-lived worker
processes that absorb a stream of :class:`~repro.api.RunRequest`-shaped
jobs, submitted by the figure prefetcher, the bench harness, ad-hoc
:func:`repro.api.run_many` callers, and the socket ``serve`` mode (see
:mod:`repro.harness.serve`) alike.

Scheduler
    A single shared pending deque plus one local deque per worker.
    Batch submissions (:meth:`WorkerPool.submit_batch`) shard round-robin
    across the local deques for locality; ad-hoc submissions land on the
    shared deque.  An idle worker takes from its own local deque first,
    then the shared deque, and finally *steals from the back* of the
    most-loaded peer's local deque — so a skewed grid (one worker stuck
    with the slow cells) rebalances instead of straggling.

Single-flight, twice
    In-process, jobs are deduplicated by cache key: a second
    ``submit(key=K)`` while ``K`` is pending/running returns the same
    :class:`PoolJob`.  Across processes, the on-disk result cache
    (:class:`ResultCache`, the same files ``figures`` always wrote) is
    guarded by a per-entry ``flock``: a worker that misses takes the
    entry lock, re-checks, computes, stores, releases — two pools on one
    cache directory never run the same cell twice.

Crash tolerance
    The quarantine/timeout/retry machinery that PR 4 built into
    ``figures._run_wave`` lives here now, so it applies to *every*
    submission path.  A worker that dies (including a deliberate
    ``harness.worker:crash`` injection, which ``os._exit``\\ s the worker)
    is detected via its process sentinel, its in-flight job is charged a
    failed attempt, and a replacement worker is spawned; a job that
    exhausts ``1 + retries`` attempts fails with a structured
    :class:`~repro.faults.FaultReport` (and a ``quarantine-<cell>.json``
    spool record when a spool is armed).  Hangs are bounded by a
    per-job timeout: the worker is killed and replaced the same way.

Warm starts
    Workers pre-import ``repro.workloads``, ``repro.jvm``, and
    ``repro.api`` at spawn, so the first job pays no import tax;
    :meth:`WorkerPool.warmup` primes every worker and returns their pids
    (the live-worker invariant tests assert a second submission reuses a
    pid from that set).

Observability
    When a spool directory is armed the pool publishes a
    ``pool-<pid>.json`` status file (workers, pids, jobs done, steals,
    replacements) next to the workers' heartbeat run files, so
    ``python -m repro inspect --fleet`` renders the pool as a live
    service, not a pile of anonymous processes.
"""

from __future__ import annotations

import atexit
import hashlib
import json
import os
import threading
import time
import warnings
from collections import deque
from contextlib import contextmanager
from multiprocessing import connection as mp_connection
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

try:  # POSIX only; the cache degrades to lock-free writes elsewhere.
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX
    fcntl = None

from ..faults import FaultPlan, FaultReport

#: Bump when run semantics change in a way that invalidates stored
#: results.  v2: keys grew the RuntimeConfig fingerprint (this is the
#: same versioning — and the same on-disk files — as the figure cache
#: this class was promoted from).  v3: keys grew the workload-params
#: axis (WorkloadSpec) and results the ``params``/``latency`` sections.
#: v4: the tiered-dispatch default flip (RuntimeConfig fingerprints grew
#: ``promote_after``/``promote_backedge_weight``) plus the request-level
#: ``cold_start`` wire field and the ``compile_ms`` latency percentiles.
CACHE_VERSION = 4

#: Retry backoff base (seconds); attempt N becomes eligible again after
#: ``base * 2**(N-1)``, capped at 2s.
BACKOFF_BASE = 0.1
BACKOFF_CAP = 2.0

#: Dispatcher tick when nothing else bounds the wait (seconds).
_TICK = 0.05


# ---------------------------------------------------------------------------
# The shared result cache (cross-process, file-locked, single-flight)
# ---------------------------------------------------------------------------

class ResultCache:
    """The on-disk result cache, promoted to a cross-process shared cache.

    Entries are the exact files :mod:`repro.harness.figures` always wrote
    (``sha1([CACHE_VERSION, *key]).json`` holding a
    :func:`~repro.api.result_to_dict` payload), so existing caches stay
    valid.  What is new is the concurrency contract: writes go through a
    temp file + ``os.replace`` (atomic), and :meth:`lock` takes a
    per-entry ``flock`` so concurrent pools single-flight each cell —
    the lock holder computes, everyone else re-checks the entry after
    the lock drops.  A crashed holder releases the flock with its
    process, so the cache can never deadlock.
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
    """One submission: a serialized run request plus its lifecycle state.

    Terminal states are ``done`` (``result_dict`` holds the
    :func:`~repro.api.result_to_dict` payload) and ``failed``
    (``report`` holds the :class:`~repro.faults.FaultReport` that
    quarantined it).  ``wait`` blocks until terminal; callbacks fire
    exactly once, from the dispatcher thread.
    """

    __slots__ = (
        "job_id", "key", "request", "plan", "timeout", "retries",
        "cache_dir", "status", "attempts", "result_dict", "report",
        "cached", "pid", "wall_seconds", "eligible_at",
        "_event", "_callbacks",
    )

    def __init__(self, job_id: int, request: Dict, *,
                 key: Optional[Tuple] = None,
                 plan: Optional[FaultPlan] = None,
                 timeout: Optional[float] = None,
                 retries: int = 2,
                 cache_dir: Optional[str] = None) -> None:
        self.job_id = job_id
        self.key = key
        self.request = dict(request)
        self.plan = plan
        self.timeout = timeout
        self.retries = max(0, int(retries))
        self.cache_dir = cache_dir
        self.status = "pending"
        self.attempts = 0
        self.result_dict: Optional[Dict] = None
        self.report: Optional[FaultReport] = None
        self.cached = False
        self.pid: Optional[int] = None
        self.wall_seconds: Optional[float] = None
        self.eligible_at = 0.0
        self._event = threading.Event()
        self._callbacks: List = []

    @property
    def cell_id(self) -> str:
        return request_cell_id(self.request)

    @property
    def done(self) -> bool:
        return self.status in ("done", "failed")

    def wait(self, timeout: Optional[float] = None) -> "PoolJob":
        self._event.wait(timeout)
        return self

    def add_done_callback(self, fn) -> None:
        """Run ``fn(job)`` once the job is terminal (immediately if it is)."""
        fire = False
        if self.done:
            fire = True
        else:
            self._callbacks.append(fn)
            if self.done and fn in self._callbacks:  # lost the race
                self._callbacks.remove(fn)
                fire = True
        if fire:
            fn(self)

    def _finish(self) -> None:
        callbacks, self._callbacks = self._callbacks, []
        self._event.set()
        for fn in callbacks:
            try:
                fn(self)
            except Exception:  # noqa: BLE001 - observers never kill the pool
                pass

    def __repr__(self) -> str:
        return (f"<PoolJob #{self.job_id} {self.cell_id} {self.status}"
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


def _worker_main(worker_id: int, conn) -> None:
    """Worker loop: recv a message, act, reply.  Lives until ``stop``."""
    from ..faults import FaultError

    _warm_imports()
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            return
        kind = msg[0]
        if kind == "stop":
            try:
                conn.send(("bye", worker_id))
            except (BrokenPipeError, OSError):
                pass
            return
        if kind == "warmup":
            conn.send(("warm", worker_id, os.getpid()))
            continue
        # ("job", job_id, request, key, cache_dir, inject)
        _, job_id, request, key, cache_dir, inject = msg
        try:
            _apply_injection(inject)
            data, cached, wall = execute_request(
                request, key=key, cache_dir=cache_dir
            )
            conn.send(("done", worker_id, job_id, data, cached,
                       os.getpid(), wall))
        except FaultError as exc:
            conn.send(("error", worker_id, job_id,
                       exc.report.to_dict(), os.getpid()))
        except BaseException as exc:  # noqa: BLE001 - report, don't die
            report = FaultReport(
                site="harness.worker", kind="crash",
                message=f"{type(exc).__name__}: {exc}",
                context={"cell": request_cell_id(request)},
            )
            try:
                conn.send(("error", worker_id, job_id,
                           report.to_dict(), os.getpid()))
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
    """Parent-side handle: process + duplex pipe + scheduling state."""

    __slots__ = ("worker_id", "proc", "conn", "job", "deadline", "jobs_done")

    def __init__(self, worker_id: int, ctx) -> None:
        self.worker_id = worker_id
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        proc = ctx.Process(
            target=_worker_main, args=(worker_id, child_conn),
            name=f"repro-pool-{worker_id}", daemon=True,
        )
        with warnings.catch_warnings():
            # Forking from the dispatcher thread trips 3.12's
            # fork-with-threads DeprecationWarning; the child only ever
            # touches its own fresh pipe, so the hazard does not apply.
            warnings.simplefilter("ignore", DeprecationWarning)
            proc.start()
        child_conn.close()
        self.proc = proc
        self.conn = parent_conn
        self.job: Optional[PoolJob] = None
        self.deadline: Optional[float] = None
        self.jobs_done = 0

    @property
    def idle(self) -> bool:
        return self.job is None

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
    """A persistent pool of warm VM workers with work-stealing scheduling.

    Thread-safe: ``submit``/``submit_batch``/``warmup`` may be called
    from any thread (the socket server calls them from per-connection
    threads); one background dispatcher thread owns all scheduling.
    """

    def __init__(self, jobs: int = 2, *,
                 cache_dir: Optional[str] = None,
                 spool: Optional[str] = None,
                 retries: int = 2,
                 cell_timeout: Optional[float] = None) -> None:
        if jobs < 1:
            raise ValueError("a pool needs at least one worker")
        self.jobs = int(jobs)
        self.cache_dir = str(cache_dir) if cache_dir else None
        self.spool = Path(spool) if spool else None
        self.default_retries = retries
        self.default_timeout = cell_timeout

        self._ctx = _mp_context()
        self._lock = threading.RLock()
        self._shared: deque = deque()
        self._local: List[deque] = [deque() for _ in range(self.jobs)]
        self._inflight: Dict[Tuple, PoolJob] = {}
        self._next_job_id = 0
        self._next_shard = 0
        self._warm_pending: Dict[int, threading.Event] = {}
        self._warm_sent: set = set()
        self._warm_pids: Dict[int, int] = {}

        self.steals = 0
        self.completed = 0
        self.failed = 0
        self.replaced = 0

        self._wake_r, self._wake_w = os.pipe()
        self._stop = threading.Event()
        self._workers: List[_Worker] = [
            _Worker(i, self._ctx) for i in range(self.jobs)
        ]
        self._dispatcher = threading.Thread(
            target=self._loop, name="repro-pool-dispatcher", daemon=True,
        )
        self._dispatcher.start()
        self._publish_status()
        atexit.register(self.shutdown)

    # -- submission ------------------------------------------------------

    def submit(self, request: Dict, *,
               key: Optional[Tuple] = None,
               plan: Optional[FaultPlan] = None,
               timeout: Optional[float] = None,
               retries: Optional[int] = None,
               shard: Optional[int] = None) -> PoolJob:
        """Queue one request; returns its :class:`PoolJob`.

        ``key`` (a hashable cache key) turns on single-flight: a second
        submit of the same key while the first is in flight returns the
        *same* job.  ``shard`` pins the job onto worker ``shard``'s local
        deque (stealing may still move it); None uses the shared deque.
        """
        with self._lock:
            if key is not None:
                existing = self._inflight.get(key)
                if existing is not None:
                    return existing
            self._next_job_id += 1
            job = PoolJob(
                self._next_job_id, request, key=key, plan=plan,
                timeout=self.default_timeout if timeout is None else timeout,
                retries=(self.default_retries if retries is None
                         else retries),
                cache_dir=self.cache_dir,
            )
            if key is not None:
                self._inflight[key] = job
            if shard is None:
                self._shared.append(job)
            else:
                self._local[shard % self.jobs].append(job)
        self._wake()
        return job

    def submit_batch(self, requests: Sequence[Dict], *,
                     keys: Optional[Sequence[Optional[Tuple]]] = None,
                     plan: Optional[FaultPlan] = None,
                     timeout: Optional[float] = None,
                     retries: Optional[int] = None) -> List[PoolJob]:
        """Queue a grid, sharded round-robin across worker-local deques."""
        out: List[PoolJob] = []
        for i, request in enumerate(requests):
            key = keys[i] if keys is not None else None
            with self._lock:
                shard = self._next_shard
                self._next_shard = (self._next_shard + 1) % self.jobs
            out.append(self.submit(
                request, key=key, plan=plan, timeout=timeout,
                retries=retries, shard=shard,
            ))
        return out

    def wait(self, jobs: Sequence[PoolJob],
             timeout: Optional[float] = None) -> bool:
        """Block until every job is terminal; False on timeout."""
        deadline = None if timeout is None else time.monotonic() + timeout
        for job in jobs:
            remaining = None
            if deadline is not None:
                remaining = max(0.0, deadline - time.monotonic())
            job.wait(remaining)
            if not job.done:
                return False
        return True

    def run(self, requests: Sequence[Dict], **kwargs) -> List[PoolJob]:
        """``submit_batch`` + ``wait``: the grid-at-once convenience."""
        jobs = self.submit_batch(requests, **kwargs)
        self.wait(jobs)
        return jobs

    # -- warmup ----------------------------------------------------------

    def warmup(self, timeout: float = 30.0) -> Dict[int, int]:
        """Prime every worker; returns ``{worker_id: pid}`` of live workers."""
        events: Dict[int, threading.Event] = {}
        with self._lock:
            self._warm_pids.clear()
            for worker in self._workers:
                event = threading.Event()
                events[worker.worker_id] = event
                self._warm_pending[worker.worker_id] = event
        self._wake()
        deadline = time.monotonic() + timeout
        for event in events.values():
            event.wait(max(0.0, deadline - time.monotonic()))
        with self._lock:
            return dict(self._warm_pids)

    # -- introspection ---------------------------------------------------

    def worker_pids(self) -> List[int]:
        with self._lock:
            return [w.pid for w in self._workers if w.pid is not None]

    def stats(self) -> Dict:
        with self._lock:
            return {
                "pid": os.getpid(),
                "jobs": self.jobs,
                "workers": [
                    {
                        "id": w.worker_id,
                        "pid": w.pid,
                        "state": "idle" if w.idle else "busy",
                        "cell": w.job.cell_id if w.job else None,
                        "jobs_done": w.jobs_done,
                    }
                    for w in self._workers
                ],
                "queued": (len(self._shared)
                           + sum(len(d) for d in self._local)),
                "completed": self.completed,
                "failed": self.failed,
                "steals": self.steals,
                "replaced": self.replaced,
            }

    # -- shutdown --------------------------------------------------------

    def shutdown(self, timeout: float = 2.0) -> None:
        """Stop the dispatcher and reap every worker.  Idempotent."""
        if self._stop.is_set():
            return
        self._stop.set()
        self._wake()
        self._dispatcher.join(timeout=timeout)
        with self._lock:
            workers = list(self._workers)
        for worker in workers:
            try:
                worker.conn.send(("stop",))
            except (BrokenPipeError, OSError):
                pass
        for worker in workers:
            worker.proc.join(timeout=timeout)
            if worker.proc.is_alive():
                worker.kill()
            else:
                try:
                    worker.conn.close()
                except OSError:
                    pass
        # Fail anything still queued or running so waiters never hang.
        with self._lock:
            leftovers = [j for j in self._drain_queues() if not j.done]
            for worker in self._workers:
                if worker.job is not None and not worker.job.done:
                    leftovers.append(worker.job)
                    worker.job = None
        for job in leftovers:
            job.status = "failed"
            job.report = FaultReport(
                site="harness.worker", kind="crash",
                message="pool shut down before the job ran",
                context={"cell": job.cell_id, "attempts": job.attempts},
            )
            job._finish()
        self._publish_status(final=True)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()

    # -- dispatcher internals (single thread) ----------------------------

    def _wake(self) -> None:
        try:
            os.write(self._wake_w, b"x")
        except OSError:
            pass

    def _drain_queues(self) -> List[PoolJob]:
        jobs = list(self._shared)
        self._shared.clear()
        for local in self._local:
            jobs.extend(local)
            local.clear()
        return jobs

    def _loop(self) -> None:
        while not self._stop.is_set():
            self._reap_messages()
            self._reap_deaths_and_timeouts()
            self._assign()
            self._wait_for_events()
        # Drain the wake pipe on the way out.
        try:
            os.close(self._wake_r)
            os.close(self._wake_w)
        except OSError:
            pass

    def _wait_for_events(self) -> None:
        with self._lock:
            waitables: List = [self._wake_r]
            timeout = _TICK
            now = time.monotonic()
            for worker in self._workers:
                waitables.append(worker.conn)
                waitables.append(worker.proc.sentinel)
                if worker.deadline is not None:
                    timeout = min(timeout, max(0.0, worker.deadline - now))
            for q in (self._shared, *self._local):
                for job in q:
                    if job.eligible_at > now:
                        timeout = min(timeout,
                                      max(0.0, job.eligible_at - now))
        try:
            ready = mp_connection.wait(waitables, timeout=timeout)
        except OSError:
            ready = []
        if self._wake_r in ready:
            try:
                os.read(self._wake_r, 4096)
            except OSError:
                pass

    def _reap_messages(self) -> None:
        with self._lock:
            workers = list(self._workers)
        for worker in workers:
            while True:
                try:
                    if not worker.conn.poll():
                        break
                    msg = worker.conn.recv()
                except (EOFError, OSError):
                    break  # death handled by the sentinel pass
                self._handle_message(worker, msg)

    def _handle_message(self, worker: _Worker, msg: Tuple) -> None:
        kind = msg[0]
        if kind == "warm":
            _, worker_id, pid = msg
            with self._lock:
                self._warm_pids[worker_id] = pid
                self._warm_sent.discard(worker_id)
                event = self._warm_pending.pop(worker_id, None)
            if event is not None:
                event.set()
            return
        if kind == "bye":
            return
        if kind == "done":
            _, _, job_id, data, cached, pid, wall = msg
            job = worker.job
            if job is None or job.job_id != job_id:
                return
            with self._lock:
                worker.job = None
                worker.deadline = None
                worker.jobs_done += 1
                self.completed += 1
                if job.key is not None:
                    self._inflight.pop(job.key, None)
            job.result_dict = data
            job.cached = bool(cached)
            job.pid = pid
            job.wall_seconds = wall
            job.status = "done"
            job._finish()
            self._publish_status()
            return
        if kind == "error":
            _, _, job_id, report_dict, pid = msg
            job = worker.job
            if job is None or job.job_id != job_id:
                return
            with self._lock:
                worker.job = None
                worker.deadline = None
            report = FaultReport(**report_dict)
            job.pid = pid
            self._job_attempt_failed(job, report)

    def _reap_deaths_and_timeouts(self) -> None:
        now = time.monotonic()
        with self._lock:
            workers = list(self._workers)
        for worker in workers:
            if not worker.proc.is_alive():
                self._replace_worker(worker, reason="crash")
            elif (worker.deadline is not None and now > worker.deadline):
                worker.kill()
                self._replace_worker(worker, reason="hang")

    def _replace_worker(self, worker: _Worker, reason: str) -> None:
        job = worker.job
        with self._lock:
            try:
                index = self._workers.index(worker)
            except ValueError:
                return  # already replaced
            exitcode = worker.proc.exitcode
            worker.kill()
            self._workers[index] = _Worker(worker.worker_id, self._ctx)
            self.replaced += 1
            self._warm_sent.discard(worker.worker_id)
            event = self._warm_pending.pop(worker.worker_id, None)
        if event is not None:
            event.set()  # warmup never hangs on a dead worker
        if job is not None:
            if reason == "hang":
                message = (f"worker pid={worker.pid} timed out after "
                           f"{job.timeout:g}s on cell {job.cell_id}")
            else:
                message = (f"worker pid={worker.pid} died "
                           f"(exit {exitcode}) running cell {job.cell_id}")
            report = FaultReport(
                site="harness.worker", kind=reason, message=message,
                context={"cell": job.cell_id},
            )
            self._job_attempt_failed(job, report)
        else:
            self._publish_status()

    def _job_attempt_failed(self, job: PoolJob, report: FaultReport) -> None:
        job.attempts += 1
        report.context = dict(report.context, cell=job.cell_id,
                              attempts=job.attempts)
        if job.attempts > job.retries:
            with self._lock:
                if job.key is not None:
                    self._inflight.pop(job.key, None)
                self.failed += 1
            job.report = report
            job.status = "failed"
            self._record_quarantine(job, report)
            job._finish()
        else:
            backoff = min(BACKOFF_CAP,
                          BACKOFF_BASE * (2 ** (job.attempts - 1)))
            job.eligible_at = time.monotonic() + backoff
            job.status = "pending"
            with self._lock:
                self._shared.append(job)
        self._publish_status()

    def _assign(self) -> None:
        now = time.monotonic()
        with self._lock:
            # Outstanding warm probes first (the dispatcher owns all pipe
            # writes, so warmup() only registers intent).
            for worker in self._workers:
                if (worker.worker_id in self._warm_pending
                        and worker.worker_id not in self._warm_sent):
                    try:
                        worker.conn.send(("warmup",))
                        self._warm_sent.add(worker.worker_id)
                    except (BrokenPipeError, OSError):
                        pass  # the sentinel pass will replace it
            for worker in self._workers:
                if not worker.idle or not worker.proc.is_alive():
                    continue
                job = self._take_job_for(worker, now)
                if job is None:
                    continue
                inject = None
                if job.plan is not None:
                    spec = job.plan.worker_injection(job.cell_id,
                                                     job.attempts)
                    if spec is not None:
                        inject = {"kind": spec.kind,
                                  "seconds": spec.seconds,
                                  "cell": job.cell_id,
                                  "attempt": job.attempts}
                try:
                    worker.conn.send((
                        "job", job.job_id, job.request, job.key,
                        job.cache_dir, inject,
                    ))
                except (BrokenPipeError, OSError):
                    # The worker died between polls; the sentinel pass
                    # will replace it.  Requeue rather than charging an
                    # attempt the job never got.
                    self._shared.appendleft(job)
                    continue
                job.status = "running"
                worker.job = job
                worker.deadline = (None if job.timeout is None
                                   else now + job.timeout)

    def _take_job_for(self, worker: _Worker,
                      now: float) -> Optional[PoolJob]:
        """Local deque first, then shared, then steal from the busiest peer."""
        def pop_eligible(dq: deque, from_back: bool) -> Optional[PoolJob]:
            for _ in range(len(dq)):
                job = dq.pop() if from_back else dq.popleft()
                if job.eligible_at <= now:
                    return job
                if from_back:
                    dq.appendleft(job)
                else:
                    dq.append(job)
            return None

        job = pop_eligible(self._local[worker.worker_id], from_back=False)
        if job is not None:
            return job
        job = pop_eligible(self._shared, from_back=False)
        if job is not None:
            return job
        victim = max(
            (d for d in self._local if d is not self._local[worker.worker_id]),
            key=len, default=None,
        )
        if victim:
            job = pop_eligible(victim, from_back=True)
            if job is not None:
                self.steals += 1
                return job
        return None

    # -- spool publication ----------------------------------------------

    def _record_quarantine(self, job: PoolJob, report: FaultReport) -> None:
        """Spool a quarantine record for ``repro inspect --fleet``."""
        if self.spool is None:
            return
        try:
            self.spool.mkdir(parents=True, exist_ok=True)
            cell = job.cell_id.replace("/", "_").replace(":", "-")
            path = self.spool / f"quarantine-{cell}.json"
            tmp = path.with_suffix(".json.tmp")
            tmp.write_text(json.dumps({
                "cell": job.cell_id,
                "site": report.site,
                "kind": report.kind,
                "message": report.message,
                "context": report.context,
            }, indent=2))
            os.replace(tmp, path)
        except OSError:
            pass

    def _publish_status(self, final: bool = False) -> None:
        """Atomically rewrite ``pool-<pid>.json`` in the spool (best effort)."""
        if self.spool is None:
            return
        status = self.stats()
        status["kind"] = "pool"
        status["phase"] = "final" if final else "serving"
        status["time"] = time.time()
        try:
            self.spool.mkdir(parents=True, exist_ok=True)
            path = self.spool / f"pool-{os.getpid()}.json"
            tmp = path.with_suffix(".json.tmp")
            tmp.write_text(json.dumps(status, indent=2, sort_keys=True))
            os.replace(tmp, path)
        except OSError:
            pass


# ---------------------------------------------------------------------------
# The shared pool (one per process, reused across prefetch/bench/api calls)
# ---------------------------------------------------------------------------

_SHARED: Optional[WorkerPool] = None


def get_shared_pool(jobs: int, *,
                    cache_dir: Optional[str] = None,
                    spool: Optional[str] = None) -> WorkerPool:
    """The process-wide pool, created on first use and kept warm.

    Reused while the requested worker count matches; asking for a
    different ``jobs`` tears the old pool down and builds a fresh one
    (the harness CLI only ever runs one ``--jobs`` setting per process).
    ``cache_dir``/``spool`` updates are applied to the live pool — they
    only affect jobs submitted afterwards.
    """
    global _SHARED
    if _SHARED is not None and (_SHARED.jobs != jobs
                                or _SHARED._stop.is_set()):
        _SHARED.shutdown()
        _SHARED = None
    if _SHARED is None:
        _SHARED = WorkerPool(jobs, cache_dir=cache_dir, spool=spool)
    else:
        _SHARED.cache_dir = str(cache_dir) if cache_dir else None
        _SHARED.spool = Path(spool) if spool else None
    return _SHARED


def shutdown_shared_pool() -> None:
    """Tear down the process-wide pool (tests and clean exits)."""
    global _SHARED
    if _SHARED is not None:
        _SHARED.shutdown()
        _SHARED = None
