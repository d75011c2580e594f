"""Parallel query execution across a pool of persistent workers.

:class:`ParallelExecutor` generalises the single-worker
:class:`~repro.exec.pool.SubprocessExecutor` to ``jobs`` persistent
worker processes, sharing the same worker loop, hard-limit machinery and
failure taxonomy:

* the (pipeline, database) pair is serialized to each worker **once** per
  binding — on Linux the ``fork`` start method shares the parent's copy
  copy-on-write, so queries never re-pickle the data graphs;
* every query result lands at its input position, so a parallel run
  returns the exact sequence a serial run would (timings aside);
* containment is per worker: a query that blows its hard wall-clock
  budget gets its worker SIGKILLed and recorded as OOT while the other
  workers keep draining the queue — one pathological query never stalls
  the pool;
* a worker that dies *before acknowledging* a query (it never started the
  work) triggers a bounded, backed-off re-dispatch, exactly like the
  serial executor's transient-retry path; consecutive startup failures
  cap out at ``max_retries`` pool-wide and fail the remaining queries as
  crashes rather than spinning forever.

The pool is an event loop over :func:`multiprocessing.connection.wait`:
dispatch is eager (a query is written to a spawning worker's pipe before
the ``ready`` handshake arrives — the pipe buffers it), and all timeout
accounting (startup, ack, hard wall-clock) is driven from the loop.
"""

from __future__ import annotations

import multiprocessing
import time
from collections import deque
from multiprocessing.connection import wait as _conn_wait
from typing import TYPE_CHECKING

from repro.core.metrics import QueryFailure, QueryResult
from repro.exec import faults
from repro.exec.base import QueryExecutor, failure_result
from repro.exec.pool import _preferred_context, _worker_main

if TYPE_CHECKING:  # pragma: no cover - type hints only
    from repro.core.pipeline import QueryPipeline
    from repro.graph.database import GraphDatabase
    from repro.graph.labeled_graph import Graph
    from repro.matching.plan import QueryPlan

__all__ = ["ParallelExecutor"]


class _Job:
    """One query dispatched to one worker."""

    __slots__ = ("index", "retries", "sent_at", "acked_at")

    def __init__(self, index: int, retries: int, sent_at: float) -> None:
        self.index = index
        self.retries = retries
        self.sent_at = sent_at
        self.acked_at: float | None = None


class _Worker:
    """A persistent worker process and its dispatch state."""

    __slots__ = (
        "proc", "conn", "ready", "ready_at", "spawned_at", "job", "exitcode",
        "pid", "queries", "last_latency",
    )

    def __init__(self, proc, conn, spawned_at: float) -> None:
        self.proc = proc
        self.conn = conn
        self.ready = False
        self.ready_at: float | None = None
        self.spawned_at = spawned_at
        self.job: _Job | None = None
        self.exitcode: int | None = None
        #: Liveness bookkeeping surfaced by ``worker_stats`` (the pid
        #: outlives ``proc``, which is dropped on scrap).
        self.pid: int | None = proc.pid
        self.queries = 0
        self.last_latency: float | None = None

    @property
    def alive(self) -> bool:
        return self.proc is not None and self.proc.is_alive()

    def scrap(self, kill: bool = False) -> None:
        proc, conn = self.proc, self.conn
        self.proc = self.conn = None
        if proc is not None:
            self.exitcode = proc.exitcode
            if kill and proc.is_alive():
                proc.kill()
            proc.join(timeout=5.0)
            self.exitcode = proc.exitcode
            if hasattr(proc, "close"):
                proc.close()
        if conn is not None:
            conn.close()


class ParallelExecutor(QueryExecutor):
    """Fans query batches across ``jobs`` persistent worker processes.

    ``run`` degenerates to a batch of one; use
    :class:`~repro.exec.pool.SubprocessExecutor` when single-query latency
    matters more than batch throughput.
    """

    def __init__(
        self,
        jobs: int = 4,
        memory_limit_mb: int | None = None,
        hard_timeout_factor: float = 1.5,
        hard_timeout_grace: float = 0.25,
        max_retries: int = 2,
        retry_backoff: float = 0.05,
        startup_timeout: float = 60.0,
        ack_timeout: float = 30.0,
        start_method: str | None = None,
    ) -> None:
        if jobs < 1:
            raise ValueError("jobs must be at least 1")
        self.jobs = jobs
        self.memory_limit_mb = memory_limit_mb
        self.hard_timeout_factor = hard_timeout_factor
        self.hard_timeout_grace = hard_timeout_grace
        self.max_retries = max_retries
        self.retry_backoff = retry_backoff
        self.startup_timeout = startup_timeout
        self.ack_timeout = ack_timeout
        self._ctx = (
            multiprocessing.get_context(start_method)
            if start_method
            else _preferred_context()
        )
        self._workers: list[_Worker] = []
        #: Identity of the (pipeline, db) the live pool was built from.
        self._bound: tuple[object, object] | None = None
        #: Consecutive worker deaths before ``ready`` — a pool-wide fuse.
        self._spawn_failures = 0
        self._last_exit: int | None = None
        #: Lifetime supervision counters (never reset by rebinds), the
        #: raw material for the service's per-worker liveness stats.
        self.spawn_total = 0
        self.worker_deaths = 0  # died on their own (crash, OOM-killer, ...)
        self.worker_kills = 0  # deliberately SIGKILLed (hard/ack timeout)

    # ------------------------------------------------------------------
    # Pool lifecycle
    # ------------------------------------------------------------------

    def _spawn_worker(self, pipeline: "QueryPipeline", db: "GraphDatabase") -> _Worker:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        limit_bytes = (
            self.memory_limit_mb * 1024 * 1024 if self.memory_limit_mb else None
        )
        proc = self._ctx.Process(
            target=_worker_main,
            args=(
                child_conn, parent_conn, pipeline, db, limit_bytes,
                faults.active_specs(),
            ),
            daemon=True,
        )
        proc.start()
        child_conn.close()
        worker = _Worker(proc, parent_conn, time.perf_counter())
        self._workers.append(worker)
        self.spawn_total += 1
        return worker

    def _reap(self, worker: _Worker, kill: bool) -> None:
        worker.scrap(kill=kill)
        if worker.exitcode is not None:
            self._last_exit = worker.exitcode
        if worker in self._workers:
            self._workers.remove(worker)

    def _record_failure_reap(self, worker: _Worker, deliberate: bool) -> None:
        """Bookkeeping for a worker lost to a failure, called right before
        the failing worker is reaped.  ``deliberate`` distinguishes a
        containment SIGKILL (hard/ack timeout) from a death of the
        worker's own doing.  :class:`~repro.exec.supervise.
        SupervisedExecutor` hooks this for backoff and storm accounting.
        """
        if deliberate:
            self.worker_kills += 1
        else:
            self.worker_deaths += 1

    def _note_result(self, worker: _Worker, job: _Job, now: float) -> None:
        """Bookkeeping for one completed query (the healthy path)."""
        worker.queries += 1
        worker.last_latency = now - (job.acked_at or job.sent_at)

    def _fuse_blown(self) -> bool:
        """Whether the pool must stop respawning and fail pending work."""
        return self._spawn_failures > self.max_retries

    def _maintain_pool(self, pipeline: "QueryPipeline", db: "GraphDatabase",
                       want: int) -> None:
        """Bring the pool back to strength (subclasses add backoff here)."""
        while len(self._workers) < want:
            self._spawn_worker(pipeline, db)

    def _scrap_all(self) -> None:
        for w in list(self._workers):
            self._reap(w, kill=True)
        self._bound = None

    def _rebind(self, pipeline: "QueryPipeline", db: "GraphDatabase") -> None:
        if self._bound is not None and (
            self._bound[0] is pipeline and self._bound[1] is db
        ):
            # Keep live, idle workers from the previous batch.
            for w in list(self._workers):
                if not (w.alive and w.job is None):
                    if not w.alive:
                        # Died idle between batches; the watchdog counts it
                        # like any other unexpected death.
                        self._record_failure_reap(w, deliberate=False)
                    self._reap(w, kill=True)
        else:
            self._scrap_all()
        self._bound = (pipeline, db)
        self._spawn_failures = 0

    # ------------------------------------------------------------------
    # Liveness
    # ------------------------------------------------------------------

    def worker_stats(self) -> dict:
        """Supervision snapshot: lifetime counters plus per-worker rows.

        ``restarts`` counts every worker lost to a failure over the
        executor's lifetime — each one forced a respawn to keep the pool
        at strength.  Safe to call between batches from any thread that
        owns the executor (the service calls it from its stats path).
        """
        now = time.perf_counter()
        return {
            "executor": type(self).__name__,
            "jobs": self.jobs,
            "spawns": self.spawn_total,
            "deaths": self.worker_deaths,
            "kills": self.worker_kills,
            "restarts": self.worker_deaths + self.worker_kills,
            "last_exit_code": self._last_exit,
            "live": [
                {
                    "pid": w.pid,
                    "alive": w.alive,
                    "ready": w.ready,
                    "age_s": now - w.spawned_at,
                    "queries": w.queries,
                    "last_batch_latency_s": w.last_latency,
                }
                for w in self._workers
            ],
        }

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------

    def run(
        self,
        pipeline: "QueryPipeline",
        query: "Graph",
        db: "GraphDatabase",
        time_limit: float | None = None,
        plan: "QueryPlan | None" = None,
    ) -> QueryResult:
        return self.run_many(pipeline, [query], db, time_limit, plans=[plan])[0]

    def run_many(
        self,
        pipeline: "QueryPipeline",
        queries: list["Graph"],
        db: "GraphDatabase",
        time_limit: float | None = None,
        plans: "list[QueryPlan | None] | None" = None,
    ) -> list[QueryResult]:
        if not queries:
            return []
        # Plans are serialized with their query: each dispatch carries the
        # engine-compiled plan so workers never recompile per attempt.
        if plans is None:
            plans = [None] * len(queries)
        self._rebind(pipeline, db)
        results: list[QueryResult | None] = [None] * len(queries)
        #: (query index, retries so far, earliest re-dispatch time)
        pending: deque[tuple[int, int, float]] = deque(
            (i, 0, 0.0) for i in range(len(queries))
        )
        outstanding = len(queries)
        hard = (
            None
            if time_limit is None
            else time_limit * self.hard_timeout_factor + self.hard_timeout_grace
        )

        def fail(index, retries, kind, message, query_time=0.0):
            nonlocal outstanding
            failure = QueryFailure(kind=kind, message=message, retries=retries)
            results[index] = failure_result(
                pipeline.name, queries[index].name, failure, query_time=query_time
            )
            outstanding -= 1

        def finish(job: _Job, result: QueryResult) -> None:
            nonlocal outstanding
            if result.failure is not None:
                result.failure.retries = job.retries
            results[job.index] = result
            outstanding -= 1

        def requeue(job: _Job) -> None:
            """Transient worker death: back off and re-dispatch, bounded."""
            if job.retries < self.max_retries:
                not_before = time.perf_counter() + self.retry_backoff * (
                    2**job.retries
                )
                pending.append((job.index, job.retries + 1, not_before))
            else:
                fail(
                    job.index,
                    job.retries,
                    "crash",
                    "worker died before starting the query "
                    f"(exit code {self._last_exit})",
                )

        def next_pending(now: float):
            """Earliest queued query whose backoff has elapsed, if any."""
            for _ in range(len(pending)):
                item = pending.popleft()
                if item[2] <= now:
                    return item
                pending.append(item)
            return None

        def handle_message(worker: _Worker, msg, now: float) -> None:
            kind = msg[0]
            if kind == "ready":
                worker.ready = True
                worker.ready_at = now
                self._spawn_failures = 0
            elif kind == "ack":
                if worker.job is not None:
                    worker.job.acked_at = now
            elif kind == "result":
                job, worker.job = worker.job, None
                if job is not None:
                    self._note_result(worker, job, now)
                    finish(job, msg[1])

        def on_death(worker: _Worker, now: float) -> None:
            """Classify a dead worker per the serial executor's rules."""
            # Drain messages written before death (e.g. a result sent just
            # as the process exited).
            try:
                while worker.conn is not None and worker.conn.poll(0):
                    handle_message(worker, worker.conn.recv(), now)
            except (EOFError, OSError):
                pass
            job, worker.job = worker.job, None
            if not worker.ready:
                self._spawn_failures += 1
            self._record_failure_reap(worker, deliberate=False)
            self._reap(worker, kill=False)
            if job is None:
                return
            if job.acked_at is not None:
                fail(
                    job.index,
                    job.retries,
                    "crash",
                    f"worker died mid-query (exit code {self._last_exit})",
                    query_time=now - job.acked_at,
                )
            else:
                requeue(job)

        def check_timeouts(worker: _Worker, now: float) -> None:
            job = worker.job
            if job is not None and job.acked_at is not None:
                if hard is not None and now - job.acked_at >= hard:
                    worker.job = None
                    self._record_failure_reap(worker, deliberate=True)
                    self._reap(worker, kill=True)
                    elapsed = now - job.sent_at
                    fail(
                        job.index,
                        job.retries,
                        "oot",
                        f"hard timeout: worker SIGKILLed after {elapsed:.2f}s "
                        f"(limit {time_limit}s)",
                        query_time=time_limit,
                    )
                return
            if not worker.ready:
                if now - worker.spawned_at >= self.startup_timeout:
                    self._spawn_failures += 1
                    worker.job = None
                    self._record_failure_reap(worker, deliberate=False)
                    self._reap(worker, kill=True)
                    if job is not None:
                        requeue(job)
                return
            if job is not None:
                # The ack clock starts when the worker can first see the
                # request: the later of send time and the ready handshake.
                since = max(job.sent_at, worker.ready_at or job.sent_at)
                if now - since >= self.ack_timeout:
                    worker.job = None
                    self._record_failure_reap(worker, deliberate=True)
                    self._reap(worker, kill=True)
                    requeue(job)

        while outstanding > 0:
            now = time.perf_counter()

            # Keep the pool at strength while there is queued work.  The
            # fuse and the respawn policy are both overridable hooks: the
            # supervised executor adds backoff, a restart-storm fuse, and
            # an idle sleep so a storming pool never busy-spins here.
            fuse_blown = self._fuse_blown()
            want = min(self.jobs, outstanding)
            if not fuse_blown:
                self._maintain_pool(pipeline, db, want)

            # Eager dispatch: one job per idle worker; the pipe buffers the
            # request even before the worker's ready handshake arrives.
            for w in self._workers:
                if w.job is not None:
                    continue
                item = next_pending(now)
                if item is None:
                    break
                index, retries, _ = item
                try:
                    w.conn.send(("query", queries[index], time_limit, plans[index]))
                    w.job = _Job(index, retries, now)
                except (BrokenPipeError, OSError):
                    if not w.ready:
                        self._spawn_failures += 1
                    self._record_failure_reap(w, deliberate=False)
                    self._reap(w, kill=True)
                    pending.appendleft((index, retries, now))
                    break

            if not self._workers:
                if fuse_blown:
                    # Nothing in flight, nothing spawnable: fail the rest.
                    while pending:
                        index, retries, _ = pending.popleft()
                        fail(
                            index,
                            retries,
                            "crash",
                            "worker pool could not start "
                            f"(exit code {self._last_exit})",
                        )
                continue

            readable = set(_conn_wait([w.conn for w in self._workers], timeout=0.05))
            now = time.perf_counter()
            for w in list(self._workers):
                if w.conn in readable:
                    try:
                        msg = w.conn.recv()
                    except (EOFError, OSError):
                        on_death(w, now)
                        continue
                    handle_message(w, msg, now)
                elif not w.alive:
                    on_death(w, now)
                else:
                    check_timeouts(w, now)

        return results  # type: ignore[return-value]

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def invalidate(self) -> None:
        """Drop all workers; the next batch sees fresh (pipeline, db) state."""
        self._scrap_all()

    def close(self) -> None:
        for w in self._workers:
            if w.conn is not None:
                try:
                    w.conn.send(("stop",))
                except (BrokenPipeError, OSError):
                    pass
        # Grace period: let workers read the stop message and exit on
        # their own (exit code 0) before the scrap falls back to kill.
        deadline = time.perf_counter() + 5.0
        for w in self._workers:
            if w.proc is not None:
                w.proc.join(timeout=max(0.0, deadline - time.perf_counter()))
        self._scrap_all()
