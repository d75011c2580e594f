"""The process-per-shard host: one long-lived subprocess per shard.

The threaded shard fleet (PR 9) runs every shard engine inside the
router's process, so CPU-bound matching gains almost nothing from adding
shards — the GIL serialises the per-shard work.  This module moves each
shard into its own persistent worker process, following the
``SubprocessExecutor``/``SupervisedExecutor`` playbook in ``repro.exec``
(persistent workers bound over a duplex pipe, ack-before-work dispatch,
drain-after-death receive, crash containment with exponential respawn
backoff) but at *shard* granularity: the child owns the whole shard —
its pipeline, its index, its ``IndexStore`` subdirectory, and its
write-ahead mutation log — and the parent keeps only a lightweight
mirror of the shard's database for routing, rebalancing, and summaries.

Protocol (parent -> child, child -> parent)::

    spawn args: (conn, parent end, index, partition db, pipeline, ...)
    <- ("ready", info)                 # after in-child build/WAL recovery
    -> ("query", queries, time_limit)
    <- ("ack", None)                   # the worker owns the batch now
    <- ("results", [QueryResult, ...]) # or ("error", exception)
    -> ("add", gid, graph, request_key)    <- ("ok", None)
    -> ("remove", gid, request_key)        <- ("ok", removed Graph)
    -> ("compact", None)                   <- ("ok", summary dict)
    -> ("stop", None)

The ``ready`` info ships the child's *recovered* database contents plus
the engine's post-build attributes (``wal_recovery``, ``index_source``,
``degraded``, recovered request keys, the shard's label summary), so the
parent can reconcile its mirror with whatever WAL replay produced inside
the child.  WAL ownership is strictly in-child: the parent never opens a
shard's store in process mode, so there is exactly one journal writer
per directory.

Crash semantics: a worker that dies mid-batch fails that batch — the
router flags the merged results partial, exactly like a downed thread
shard — and the next dispatch respawns the worker from its frozen base
partition (store mode: WAL recovery replays every acknowledged mutation,
so the respawned shard answers bit-identically) or from the parent's
current mirror (storeless mode).  Consecutive spawn failures back off
exponentially, mirroring :class:`~repro.exec.supervise.SupervisedExecutor`.

Fault sites: ``shard.worker:start`` fires in the child before ``ready``
(startup-failure tests) and ``shard.worker.query`` fires per dispatched
batch (tag ``shard-<i>``) — a ``crash`` there is the deterministic
"shard process dies mid-batch" used by the property tests and the CI
smoke (with a ``latch`` file so the respawned worker survives).
"""

from __future__ import annotations

import os
import threading
import time
from typing import TYPE_CHECKING, Callable

from repro.exec import faults
from repro.exec.pool import _preferred_context

if TYPE_CHECKING:  # pragma: no cover - type hints only
    from repro.core.metrics import QueryResult
    from repro.core.pipeline import QueryPipeline
    from repro.graph.database import GraphDatabase
    from repro.graph.labeled_graph import Graph

__all__ = ["ShardProcessHost", "ShardWorkerError", "recover_summary"]

_DEAD = object()
_TIMEOUT = object()


class ShardWorkerError(RuntimeError):
    """A shard's worker process is unavailable (died or cannot start)."""


# ----------------------------------------------------------------------
# Summary recovery (shared by the thread host and the in-child build)
# ----------------------------------------------------------------------


def recover_summary(engine) -> tuple["object", str]:
    """The shard's label summary after ``build_index``, plus its source.

    Loads the persisted summary when its ``wal_seq`` stamp matches the
    journal head *and* its graph count matches the recovered database
    (source ``"store"``); any staleness — a WAL tail replayed past the
    stamp, a mutation journaled after the last save, a torn or
    wrong-format file — rebuilds from the recovered database itself
    (source ``"rebuild"``), which *is* the fold of the replayed journal.
    The rebuilt summary is re-persisted at the current journal position,
    so the advisory file heals forward.  Storeless engines always build
    fresh (source ``"built"``).
    """
    from repro.shard.summary import ShardSummary

    store = getattr(engine, "store", None)
    if store is None:
        return ShardSummary.from_database(engine.db), "built"
    loaded = store.load_summary()
    if loaded is not None:
        data, wal_seq = loaded
        if wal_seq == store.wal.last_seq:
            try:
                summary = ShardSummary.from_dict(data)
            except (ValueError, KeyError, TypeError):
                summary = None
            if summary is not None and summary.graphs == len(engine.db):
                return summary, "store"
    summary = ShardSummary.from_database(engine.db)
    try:
        store.save_summary(summary.to_dict(), wal_seq=store.wal.last_seq)
    except OSError:
        pass  # advisory artifact; persistence is never a correctness gate
    return summary, "rebuild"


# ----------------------------------------------------------------------
# The child
# ----------------------------------------------------------------------


def _shard_worker_main(
    conn,
    parent_conn,
    index: int,
    db: "GraphDatabase",
    pipeline: "QueryPipeline",
    store_dir,
    plan_capacity: int,
    cache_capacity: int,
    fault_specs,
) -> None:
    # Drop the inherited parent end so the owner's death reaches us as EOF.
    parent_conn.close()
    faults.clear()
    faults.install(*fault_specs)
    from repro.core.engine import SubgraphQueryEngine

    tag = f"shard-{index}"
    try:
        faults.trip("shard.worker:start", tag=tag)
        engine = SubgraphQueryEngine(
            db, pipeline, cache=cache_capacity, plan_cache=plan_capacity
        )
        store = None
        if store_dir is not None:
            from repro.store import IndexStore

            store = IndexStore(store_dir)
        engine.build_index(store=store)
        summary, summary_source = recover_summary(engine)

        def wal_state() -> dict:
            # Mirrored parent-side so the service's journal-depth
            # compaction trigger keeps working with no store open there.
            if store is None:
                return {"wal_depth": 0, "wal_last_seq": 0}
            return {
                "wal_depth": store.wal.depth,
                "wal_last_seq": store.wal.last_seq,
            }

        conn.send((
            "ready",
            {
                "pid": os.getpid(),
                "graphs": list(engine.db.items()),
                "next_id": engine.db.next_id,
                **wal_state(),
                "indexing_time": engine.indexing_time,
                "degraded": engine.degraded,
                "degraded_reason": engine.degraded_reason,
                "index_source": engine.index_source,
                "store_recovery": engine.store_recovery,
                "store_save_error": engine.store_save_error,
                "wal_recovery": engine.wal_recovery,
                "recovered_request_keys": engine.recovered_request_keys,
                "summary": summary.to_dict(),
                "summary_source": summary_source,
            },
        ))
    except BaseException:
        os._exit(1)
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            break
        op = msg[0]
        if op == "stop":
            break
        try:
            if op == "query":
                _, queries, time_limit = msg
                conn.send(("ack", None))
                # Chaos hook: a fault here models the shard process
                # failing while it owns a dispatched batch.
                faults.trip("shard.worker.query", tag=tag)
                results = engine.query_many(queries, time_limit=time_limit)
                for result in results:
                    result.metadata["shard_worker_pid"] = os.getpid()
                reply = ("results", results)
            elif op == "add":
                _, gid, graph, request_key = msg
                engine.add_graph_with_id(gid, graph, request_key=request_key)
                summary.add_graph(graph)
                reply = ("ok", wal_state())
            elif op == "remove":
                _, gid, request_key = msg
                removed = engine.remove_graph(gid, request_key=request_key)
                summary.remove_graph(removed)
                reply = ("ok", {"graph": removed, **wal_state()})
            elif op == "compact":
                compacted = engine.compact_store()
                try:
                    engine.store.save_summary(
                        summary.to_dict(), wal_seq=compacted["wal_seq"]
                    )
                except OSError:
                    pass
                reply = ("ok", {"result": compacted, **wal_state()})
            else:  # pragma: no cover - protocol mismatch
                reply = ("error", RuntimeError(f"unknown op {op!r}"))
        except Exception as exc:
            reply = ("error", exc)
        try:
            conn.send(reply)
        except (BrokenPipeError, OSError):
            break
    conn.close()


# ----------------------------------------------------------------------
# The parent
# ----------------------------------------------------------------------


class _Worker:
    """Parent-side record of one shard's worker process."""

    __slots__ = (
        "index", "proc", "conn", "lock", "store_dir", "db_supplier",
        "on_ready", "spawns", "restarts", "failures", "not_before",
        "last_exitcode", "pid",
    )

    def __init__(
        self,
        index: int,
        store_dir,
        db_supplier: "Callable[[], GraphDatabase]",
        on_ready: "Callable[[dict], None] | None",
    ) -> None:
        self.index = index
        self.proc = None
        self.conn = None
        #: Serialises whole request/response exchanges: the router's
        #: fan-out thread and a concurrent mutation must not interleave
        #: messages on one pipe.
        self.lock = threading.Lock()
        self.store_dir = store_dir
        self.db_supplier = db_supplier
        self.on_ready = on_ready
        self.spawns = 0
        self.restarts = 0
        #: Consecutive spawn/exchange failures, drives the backoff.
        self.failures = 0
        #: Monotonic time before which respawn attempts are refused.
        self.not_before = 0.0
        self.last_exitcode: int | None = None
        self.pid: int | None = None

    def alive(self) -> bool:
        return self.proc is not None and self.proc.is_alive()


class ShardProcessHost:
    """Spawns, supervises, and talks to one worker process per shard.

    The owning :class:`~repro.shard.engine.ShardedEngine` registers each
    shard with a *database supplier* (what to ship a fresh worker: the
    frozen base partition when a store is attached — WAL recovery
    replays mutations on top — or the live mirror when storeless) and an
    ``on_ready`` callback that reconciles the parent mirror from the
    child's recovered state.  Every exchange is crash-contained: a dead
    worker raises :class:`ShardWorkerError` (the router degrades that
    shard, nothing else), and the next exchange respawns it, subject to
    exponential backoff after consecutive failures.
    """

    def __init__(
        self,
        pipeline_factory: "Callable[[], QueryPipeline]",
        *,
        plan_cache: int = 256,
        cache: int = 0,
        ready_timeout: float = 300.0,
        ack_timeout: float = 30.0,
        respawn_backoff: float = 0.1,
        respawn_backoff_max: float = 5.0,
    ) -> None:
        self._pipeline_factory = pipeline_factory
        self._plan_cache = plan_cache
        self._cache = cache
        self._ready_timeout = ready_timeout
        self._ack_timeout = ack_timeout
        self._respawn_backoff = respawn_backoff
        self._respawn_backoff_max = respawn_backoff_max
        self._ctx = _preferred_context()
        self._workers: dict[int, _Worker] = {}

    # ------------------------------------------------------------------
    # Registration / lifecycle
    # ------------------------------------------------------------------

    def register(
        self,
        index: int,
        *,
        db_supplier: "Callable[[], GraphDatabase]",
        store_dir=None,
        on_ready: "Callable[[dict], None] | None" = None,
    ) -> dict:
        """Adopt shard ``index`` and spawn its worker; returns ready info.

        Startup failures here are *not* contained: the fleet is being
        built, and a shard that cannot start is a configuration problem
        the caller must see.
        """
        worker = _Worker(index, store_dir, db_supplier, on_ready)
        self._workers[index] = worker
        return self._spawn(worker)

    def stop(self, index: int) -> None:
        """Gracefully stop and forget one shard's worker (shrink path)."""
        worker = self._workers.pop(index, None)
        if worker is None:
            return
        with worker.lock:
            if worker.conn is not None:
                try:
                    worker.conn.send(("stop", None))
                except (BrokenPipeError, OSError):
                    pass
            self._scrap(worker, kill=True)

    def close(self) -> None:
        for index in list(self._workers):
            self.stop(index)

    # ------------------------------------------------------------------
    # Spawn / supervision internals
    # ------------------------------------------------------------------

    def _spawn(self, worker: _Worker) -> dict:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        proc = self._ctx.Process(
            target=_shard_worker_main,
            args=(
                child_conn,
                parent_conn,
                worker.index,
                worker.db_supplier(),
                self._pipeline_factory(),
                worker.store_dir,
                self._plan_cache,
                self._cache,
                faults.active_specs(),
            ),
            daemon=True,
            name=f"repro-shard-worker-{worker.index}",
        )
        proc.start()
        child_conn.close()
        worker.proc, worker.conn = proc, parent_conn
        worker.spawns += 1
        worker.pid = proc.pid
        msg = self._recv(worker, self._ready_timeout)
        if msg is _DEAD or msg is _TIMEOUT or msg[0] != "ready":
            self._scrap(worker, kill=True)
            self._note_failure(worker)
            raise ShardWorkerError(
                f"shard {worker.index} worker failed to start "
                f"(exit code {worker.last_exitcode})"
            )
        worker.failures = 0
        worker.not_before = 0.0
        info = msg[1]
        if worker.on_ready is not None:
            worker.on_ready(info)
        return info

    def _scrap(self, worker: _Worker, kill: bool = False) -> None:
        proc, conn = worker.proc, worker.conn
        worker.proc = worker.conn = None
        if proc is not None:
            worker.last_exitcode = proc.exitcode
            if kill and proc.is_alive():
                proc.kill()
            proc.join(timeout=5.0)
            worker.last_exitcode = proc.exitcode
            if hasattr(proc, "close"):
                proc.close()
        if conn is not None:
            conn.close()

    def _note_failure(self, worker: _Worker) -> None:
        worker.failures += 1
        backoff = min(
            self._respawn_backoff * (2 ** min(worker.failures - 1, 6)),
            self._respawn_backoff_max,
        )
        worker.not_before = time.monotonic() + backoff

    def _ensure(self, worker: _Worker) -> None:
        """A live worker, respawning if needed; raises on backoff/failure."""
        if worker.alive():
            return
        self._scrap(worker)
        if time.monotonic() < worker.not_before:
            raise ShardWorkerError(
                f"shard {worker.index} worker in respawn backoff "
                f"(consecutive failures: {worker.failures})"
            )
        worker.restarts += 1
        self._spawn(worker)  # raises ShardWorkerError on startup failure

    def _recv(self, worker: _Worker, timeout: float | None):
        """One message, or ``_DEAD``/``_TIMEOUT``; polls in 50ms steps and
        drains anything written just before the process died."""
        deadline = None if timeout is None else time.perf_counter() + timeout
        while True:
            try:
                if worker.conn.poll(0.05):
                    return worker.conn.recv()
            except (EOFError, OSError):
                return _DEAD
            if worker.proc is None or not worker.proc.is_alive():
                try:
                    if worker.conn.poll(0):
                        return worker.conn.recv()
                except (EOFError, OSError):
                    pass
                return _DEAD
            if deadline is not None and time.perf_counter() >= deadline:
                return _TIMEOUT

    def _worker(self, index: int) -> _Worker:
        try:
            return self._workers[index]
        except KeyError:
            raise ShardWorkerError(
                f"shard {index} is not registered with this host"
            ) from None

    def _exchange(self, index: int, message: tuple, expect_ack: bool = False):
        """Send one request and return its reply payload, crash-contained.

        Raises :class:`ShardWorkerError` when the worker is (or becomes)
        unavailable; re-raises the child's own exception when the reply
        is ``("error", exc)`` — a *logical* failure from a live worker,
        which therefore resets the supervision counters.
        """
        worker = self._worker(index)
        with worker.lock:
            self._ensure(worker)
            try:
                worker.conn.send(message)
            except (BrokenPipeError, OSError):
                self._scrap(worker, kill=True)
                self._note_failure(worker)
                raise ShardWorkerError(
                    f"shard {index} worker pipe broke on send"
                ) from None
            if expect_ack:
                ack = self._recv(worker, self._ack_timeout)
                if ack is _DEAD or ack is _TIMEOUT:
                    self._scrap(worker, kill=True)
                    self._note_failure(worker)
                    raise ShardWorkerError(
                        f"shard {index} worker died before acknowledging "
                        f"the batch (exit code {worker.last_exitcode})"
                    )
            reply = self._recv(worker, None)
            if reply is _DEAD:
                self._scrap(worker)
                self._note_failure(worker)
                raise ShardWorkerError(
                    f"shard {index} worker died mid-request "
                    f"(exit code {worker.last_exitcode})"
                )
            kind, payload = reply
            worker.failures = 0
            worker.not_before = 0.0
            if kind == "error":
                raise payload
            return payload

    # ------------------------------------------------------------------
    # The shard operations
    # ------------------------------------------------------------------

    def query_many(
        self, index: int, queries: "list[Graph]", time_limit: float | None
    ) -> "list[QueryResult]":
        return self._exchange(
            index, ("query", queries, time_limit), expect_ack=True
        )

    def add_graph(
        self, index: int, gid: int, graph: "Graph",
        request_key: str | None = None,
    ) -> dict:
        """Returns the worker's post-mutation WAL state dict."""
        return self._exchange(index, ("add", gid, graph, request_key))

    def remove_graph(
        self, index: int, gid: int, request_key: str | None = None
    ) -> dict:
        """Returns ``{"graph": removed, "wal_depth": ..., "wal_last_seq": ...}``."""
        return self._exchange(index, ("remove", gid, request_key))

    def compact(self, index: int) -> dict:
        """Returns ``{"result": compaction summary, "wal_depth": ..., ...}``."""
        return self._exchange(index, ("compact", None))

    # ------------------------------------------------------------------
    # Liveness reporting
    # ------------------------------------------------------------------

    def worker_row(self, index: int) -> dict:
        """Liveness row for ``stats``: pid / alive / spawns / restarts."""
        worker = self._workers.get(index)
        if worker is None:
            return {"pid": None, "alive": False, "spawns": 0, "restarts": 0}
        return {
            "pid": worker.pid,
            "alive": worker.alive(),
            "spawns": worker.spawns,
            "restarts": worker.restarts,
        }
