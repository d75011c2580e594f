"""Process-isolated query execution with hard limits.

The cooperative :class:`~repro.utils.timing.Deadline` only stops code that
polls it, and Python cannot pre-empt a hot loop in the same process.  The
:class:`SubprocessExecutor` therefore runs each query in a dedicated
worker process:

* **hard wall-clock timeout** — the parent waits at most
  ``time_limit * hard_timeout_factor + hard_timeout_grace`` seconds for a
  result, then SIGKILLs the worker and records the query as OOT;
* **memory cap** — workers apply ``resource.setrlimit(RLIMIT_AS)`` at
  startup, so a runaway allocation raises ``MemoryError`` inside the
  worker (recorded as OOM) instead of taking down the run;
* **crash containment** — a worker that dies (segfault-equivalent,
  injected ``os._exit``, OOM-killer) yields a ``crash`` failure for that
  one query; the executor respawns a worker and the run continues;
* **bounded retry** — a worker that dies *before acknowledging* a query
  (it never started the work) is treated as transient: the query is
  re-dispatched with exponential backoff up to ``max_retries`` times.

One worker is kept alive and bound to a (pipeline, database) pair, so a
query set amortises the spawn cost; on Linux the ``fork`` start method
additionally shares the already-built index copy-on-write.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from typing import TYPE_CHECKING

from repro.core.metrics import QueryFailure, QueryResult
from repro.exec import faults
from repro.exec.base import QueryExecutor, classify_exception, failure_result
from repro.utils.timing import Deadline

if TYPE_CHECKING:  # pragma: no cover - type hints only
    from repro.core.pipeline import QueryPipeline
    from repro.graph.database import GraphDatabase
    from repro.graph.labeled_graph import Graph
    from repro.matching.plan import QueryPlan

__all__ = ["SubprocessExecutor"]

_TRANSIENT = object()
_DEAD = object()
_TIMEOUT = object()


def _preferred_context() -> multiprocessing.context.BaseContext:
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


def _apply_memory_limit(limit_bytes: int) -> None:
    """Cap the worker's address space; best effort on exotic platforms."""
    try:
        import resource

        resource.setrlimit(resource.RLIMIT_AS, (limit_bytes, limit_bytes))
    except (ImportError, ValueError, OSError):
        pass


def _shed_memory() -> None:
    """Free what we can after a MemoryError so reporting it can succeed."""
    import gc

    faults._ballast.clear()
    gc.collect()


def _worker_main(
    conn, parent_conn, pipeline, db, memory_limit_bytes, fault_specs
) -> None:
    # A forked child inherits the parent's end of its own pipe; holding it
    # open would hide the owner's death (no EOF on ``conn``), so the worker
    # would outlive a SIGKILLed owner.
    parent_conn.close()
    faults.clear()
    faults.install(*fault_specs)
    if memory_limit_bytes:
        _apply_memory_limit(memory_limit_bytes)
    try:
        faults.trip("worker:start", tag=pipeline.name)
        conn.send(("ready", None))
    except BaseException:
        os._exit(1)
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            break
        if msg[0] == "stop":
            break
        # The compiled plan travels with the query: workers never
        # recompile what the engine's plan cache already produced.
        _, query, time_limit, plan = msg
        try:
            conn.send(("ack", None))
        except (BrokenPipeError, OSError):
            break
        try:
            # Chaos hook: a fault here models the worker failing while it
            # owns a dispatched query — crash mid-batch, hang, slow reply.
            faults.trip("worker.query", tag=query.name or "")
            result = pipeline.execute(
                query, db, deadline=Deadline(time_limit), plan=plan
            )
        except MemoryError:
            _shed_memory()
            result = failure_result(
                pipeline.name,
                query.name,
                QueryFailure(kind="oom", message="MemoryError under worker RSS cap"),
            )
        except Exception as exc:
            result = failure_result(pipeline.name, query.name, classify_exception(exc))
        # Which process answered: consumed by the service's per-request
        # metrics; harmless provenance everywhere else.
        result.metadata["worker_pid"] = os.getpid()
        try:
            conn.send(("result", result))
        except (BrokenPipeError, OSError):
            break
    conn.close()


class SubprocessExecutor(QueryExecutor):
    """Runs each query in a killable worker subprocess (see module docs)."""

    def __init__(
        self,
        memory_limit_mb: int | None = None,
        hard_timeout_factor: float = 1.5,
        hard_timeout_grace: float = 0.25,
        max_retries: int = 2,
        retry_backoff: float = 0.05,
        startup_timeout: float = 60.0,
        ack_timeout: float = 30.0,
        start_method: str | None = None,
    ) -> None:
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
        self._proc: multiprocessing.process.BaseProcess | None = None
        self._conn = None
        #: Strong refs to the (pipeline, db) the live worker was built
        #: from, compared by identity so a stale worker is never reused.
        self._bound: tuple[object, object] | None = None
        self._last_exitcode: int | None = None

    # ------------------------------------------------------------------
    # Worker lifecycle
    # ------------------------------------------------------------------

    def _spawn(self, pipeline: "QueryPipeline", db: "GraphDatabase") -> None:
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
        self._proc, self._conn = proc, parent_conn
        self._bound = (pipeline, db)

    def _scrap_worker(self, kill: bool = False) -> None:
        proc, conn = self._proc, self._conn
        self._proc = self._conn = self._bound = None
        if proc is not None:
            self._last_exitcode = proc.exitcode
            if kill and proc.is_alive():
                proc.kill()
            proc.join(timeout=5.0)
            self._last_exitcode = proc.exitcode
            if hasattr(proc, "close"):
                proc.close()
        if conn is not None:
            conn.close()

    def _ensure_worker(self, pipeline: "QueryPipeline", db: "GraphDatabase") -> bool:
        """Bind a live worker to (pipeline, db); False on startup failure."""
        if (
            self._proc is not None
            and self._proc.is_alive()
            and self._bound is not None
            and self._bound[0] is pipeline
            and self._bound[1] is db
        ):
            return True
        self._scrap_worker(kill=True)
        self._spawn(pipeline, db)
        msg = self._recv(self.startup_timeout)
        if msg is _DEAD or msg is _TIMEOUT or msg[0] != "ready":
            self._scrap_worker(kill=True)
            return False
        return True

    def _recv(self, timeout: float | None):
        """One message, or ``_DEAD`` / ``_TIMEOUT``; polls in 50ms steps."""
        deadline = None if timeout is None else time.perf_counter() + timeout
        while True:
            try:
                if self._conn.poll(0.05):
                    return self._conn.recv()
            except (EOFError, OSError):
                return _DEAD
            if self._proc is None or not self._proc.is_alive():
                # Drain anything written before death (e.g. a result sent
                # just as the process exited).
                try:
                    if self._conn.poll(0):
                        return self._conn.recv()
                except (EOFError, OSError):
                    pass
                return _DEAD
            if deadline is not None and time.perf_counter() >= deadline:
                return _TIMEOUT

    # ------------------------------------------------------------------
    # Query dispatch
    # ------------------------------------------------------------------

    def run(
        self,
        pipeline: "QueryPipeline",
        query: "Graph",
        db: "GraphDatabase",
        time_limit: float | None = None,
        plan: "QueryPlan | None" = None,
    ) -> QueryResult:
        retries = 0
        while True:
            outcome = self._attempt(pipeline, query, db, time_limit, plan)
            if outcome is _TRANSIENT:
                if retries < self.max_retries:
                    retries += 1
                    time.sleep(self.retry_backoff * (2 ** (retries - 1)))
                    continue
                failure = QueryFailure(
                    kind="crash",
                    message=(
                        "worker died before starting the query "
                        f"(exit code {self._last_exitcode})"
                    ),
                    retries=retries,
                )
                return failure_result(pipeline.name, query.name, failure)
            if outcome.failure is not None:
                outcome.failure.retries = retries
            return outcome

    def _attempt(self, pipeline, query, db, time_limit, plan=None):
        """One dispatch; a QueryResult, or ``_TRANSIENT`` when the worker
        died without ever acknowledging the query."""
        if not self._ensure_worker(pipeline, db):
            return _TRANSIENT
        started = time.perf_counter()
        try:
            self._conn.send(("query", query, time_limit, plan))
        except (BrokenPipeError, OSError):
            self._scrap_worker(kill=True)
            return _TRANSIENT
        ack = self._recv(self.ack_timeout)
        if ack is _DEAD or ack is _TIMEOUT:
            self._scrap_worker(kill=True)
            return _TRANSIENT
        hard = (
            None
            if time_limit is None
            else time_limit * self.hard_timeout_factor + self.hard_timeout_grace
        )
        msg = self._recv(hard)
        elapsed = time.perf_counter() - started
        if msg is _TIMEOUT:
            self._scrap_worker(kill=True)
            failure = QueryFailure(
                kind="oot",
                message=(
                    f"hard timeout: worker SIGKILLed after {elapsed:.2f}s "
                    f"(limit {time_limit}s)"
                ),
            )
            return failure_result(
                pipeline.name, query.name, failure, query_time=time_limit
            )
        if msg is _DEAD:
            self._scrap_worker()
            failure = QueryFailure(
                kind="crash",
                message=f"worker died mid-query (exit code {self._last_exitcode})",
            )
            return failure_result(
                pipeline.name, query.name, failure, query_time=elapsed
            )
        return msg[1]

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def invalidate(self) -> None:
        """Drop the worker; the next query sees fresh (pipeline, db) state."""
        self._scrap_worker(kill=True)

    def close(self) -> None:
        if self._conn is not None:
            try:
                self._conn.send(("stop",))
            except (BrokenPipeError, OSError):
                pass
        self._scrap_worker(kill=True)
