"""Load generator of the serving benchmark: one process, one thread.

    python loadgen.py PLAN.json OUT.json

Speaks the service's NDJSON protocol over ``plan["connections"]``
sockets from a single ``selectors`` loop, matching responses to requests
by wire ``id``.  Three modes:

* ``open`` — request ``i`` is due at ``t0 + i / rate``; it is written on
  schedule whatever is outstanding (the service accepts pipelined
  lines), round-robin over the connections.  Latency counts from the
  due time, and how late each send went out is recorded.
* ``closed`` — each connection keeps one request outstanding and sends
  the next as soon as the answer arrives, until the window closes.  The
  operation sequence comes from a seeded generator.
* ``probe`` — inserts the ``plan["probe"]`` graphs one at a time, the
  ``i``-th no sooner than ``i / plan["rate"]`` seconds after the first.

Before an open or closed window the ``plan["warmup"]`` queries run
over every connection; their answers are checked but not recorded.  The output holds one record per measured operation (see
:func:`_record`).
"""

from __future__ import annotations

import itertools
import json
import random
import selectors
import sys
import time
import uuid

from repro.service.protocol import connect, decode_line, encode_message

#: Seconds to wait for outstanding answers once the window has closed.
DRAIN_TIMEOUT_S = 60.0


class _Conn:
    def __init__(self, address: str) -> None:
        self.sock = connect(address)
        self.buffer = b""
        self.outstanding = 0

    def lines(self) -> list[bytes]:
        data = self.sock.recv(1 << 20)
        if not data:
            raise ConnectionError("service closed the connection")
        self.buffer += data
        *complete, self.buffer = self.buffer.split(b"\n")
        return complete


def _renumber(wire: dict, rng: random.Random) -> dict:
    """The same query graph under a random vertex numbering."""
    n = len(wire["labels"])
    perm = list(range(n))
    rng.shuffle(perm)
    labels = [0] * n
    for old, new in enumerate(perm):
        labels[new] = wire["labels"][old]
    return {"labels": labels,
            "edges": [[perm[u], perm[v]] for u, v in wire["edges"]]}


class _Ops:
    """The seeded operation stream of a closed-loop workload."""

    def __init__(self, plan: dict) -> None:
        self.rng = random.Random(plan["seed"])
        self.mix = plan.get("mix", {"query": 1.0})
        self.queries = plan["queries"]
        weights = [1.0 / (rank ** plan.get("zipf_s", 1.0))
                   for rank in range(1, len(self.queries) + 1)]
        total = sum(weights)
        self.cumulative = list(itertools.accumulate(w / total for w in weights))
        self.renumbered_share = plan.get("renumbered_share", 0.0)
        self.adds = plan.get("adds", [])
        self.next_add = 0
        self.removable = list(plan.get("removable", []))
        self.acked_adds: list[int] = []

    def _key(self) -> str:
        return uuid.UUID(int=self.rng.getrandbits(128)).hex

    def _query(self) -> tuple:
        u = self.rng.random()
        lo, hi = 0, len(self.cumulative) - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if self.cumulative[mid] < u:
                lo = mid + 1
            else:
                hi = mid
        index = lo  # query i is the (i+1)-th most popular
        wire = self.queries[index]
        if self.rng.random() < self.renumbered_share:
            wire = _renumber(wire, self.rng)
        return ("query", index, {"op": "query", "graph": wire})

    def next(self) -> tuple:
        u = self.rng.random()
        add_share = self.mix.get("add", 0.0)
        remove_share = self.mix.get("remove", 0.0)
        if u < add_share and self.next_add < len(self.adds):
            index = self.next_add
            self.next_add += 1
            return ("add", index, {"op": "add_graph", "graph": self.adds[index],
                                   "request_key": self._key()})
        if add_share <= u < add_share + remove_share:
            # Base ids first, in seeded order, then graphs this run added
            # (acknowledged ones only, oldest first): none twice.
            if self.removable:
                gid = self.removable.pop()
            elif self.acked_adds:
                gid = self.acked_adds.pop(0)
            else:
                return self._query()
            return ("remove", -1, {"op": "remove_graph", "gid": gid,
                                   "request_key": self._key()})
        return self._query()


def _record(kind, index, due, sent, done, response, expected,
            wire_bytes) -> dict:
    """One measured operation, reduced to what the report needs."""
    rec = {"kind": kind, "query": index, "due": due, "sent": sent,
           "done": done, "ok": False, "code": None, "bytes": wire_bytes}
    if response is None:
        rec["code"] = "timeout"
        return rec
    if not response.get("ok"):
        rec["code"] = (response.get("error") or {}).get("code", "internal")
        return rec
    result = response.get("result", {})
    if kind == "query":
        meta = result.get("metadata") or {}
        metrics = result.get("metrics") or {}
        shard_rows = [
            row for row in (meta.get("shards") or {}).get("per_shard", ())
            if "time_s" in row
        ]
        rec.update(
            cache=result.get("cache"),
            queue_wait_s=metrics.get("queue_wait_s", 0.0),
            execution_s=metrics.get("execution_s", 0.0),
            batch_size=metrics.get("batch_size", 0),
            filtering_s=result.get("filtering_time_s", 0.0),
            verification_s=result.get("verification_time_s", 0.0),
            candidates=result.get("num_candidates", 0),
            answers=len(result.get("answers", ())),
            plan_cache=meta.get("plan_cache"),
            shard_times=[row["time_s"] for row in shard_rows],
        )
        failed = (result.get("failure") is not None or result.get("timed_out")
                  or meta.get("partial"))
        if failed:
            rec["code"] = "query_failure"
            return rec
        if expected is not None and result.get("answers") != expected:
            rec["code"] = "wrong_answer"
            return rec
    else:
        rec["gid"] = result.get("gid")
    rec["ok"] = True
    return rec


class Generator:
    def __init__(self, plan: dict) -> None:
        self.plan = plan
        self.conns = [_Conn(plan["address"]) for _ in range(plan["connections"])]
        self.selector = selectors.DefaultSelector()
        for conn in self.conns:
            self.selector.register(conn.sock, selectors.EVENT_READ, conn)
        self.expected = plan.get("expected")
        self.next_id = 0
        self.pending: dict[int, tuple] = {}

    def send(self, conn: _Conn, op: tuple, due: float, sink: list) -> None:
        """Write one request; its record goes to ``sink`` when answered."""
        kind, index, message = op
        self.next_id += 1
        data = encode_message({"id": self.next_id, **message})
        sent = time.perf_counter()
        conn.sock.sendall(data)
        conn.outstanding += 1
        self.pending[self.next_id] = (conn, kind, index, due, sent, sink,
                                      len(data))

    def poll(self, timeout: float | None) -> list[tuple]:
        """Wait up to ``timeout`` for answers; returns finished ops."""
        finished = []
        for key, _ in self.selector.select(timeout):
            conn = key.data
            for line in conn.lines():
                done = time.perf_counter()
                response = decode_line(line)
                entry = self.pending.pop(response.get("id"), None)
                if entry is None:
                    continue
                conn.outstanding -= 1
                finished.append((entry, response, done))
        return finished

    def finish(self, entry, response, done) -> dict:
        conn, kind, index, due, sent, sink, nbytes = entry
        expected = None
        if kind == "query" and self.expected is not None:
            expected = self.expected[index]
        rec = _record(kind, index, due, sent, done, response,
                      expected, nbytes)
        sink.append(rec)
        return rec

    def drain(self) -> None:
        """Collect every outstanding answer; what does not come within
        :data:`DRAIN_TIMEOUT_S` is recorded as a timeout."""
        deadline = time.perf_counter() + DRAIN_TIMEOUT_S
        while self.pending:
            left = deadline - time.perf_counter()
            if left <= 0:
                break
            for item in self.poll(left):
                self.finish(*item)
        now = time.perf_counter()
        for entry in list(self.pending.values()):
            self.finish(entry, None, now)
        self.pending.clear()

    def closed_loop(self, next_op, sink: list, end: float | None = None,
                    on_done=None, depth: int = 1) -> None:
        """Keep ``depth`` requests outstanding per connection.

        ``next_op(conn)`` names the connection's next operation, or None
        when it has none; the loop ends when nothing is outstanding or, if
        given, at ``end``.  ``on_done(conn, record)`` sees every answer.
        """
        while end is None or time.perf_counter() < end:
            for conn in self.conns:
                while conn.outstanding < depth:
                    op = next_op(conn)
                    if op is None:
                        break
                    self.send(conn, op, time.perf_counter(), sink)
            if not self.pending:
                break
            wait = DRAIN_TIMEOUT_S if end is None else max(0.0, end - time.perf_counter())
            finished = self.poll(wait)
            if not finished and end is None:
                break  # the service went quiet: drain() times the rest out
            for item in finished:
                rec = self.finish(*item)
                if on_done is not None:
                    on_done(item[0][0], rec)
        self.drain()

    def warmup(self, indices: list[int], depth: int) -> int:
        """Closed-loop pass over ``indices`` with ``depth`` requests
        outstanding per connection; returns the failed count."""
        todo = list(reversed(indices))
        records: list[dict] = []

        def next_op(conn):
            if not todo:
                return None
            index = todo.pop()
            return ("query", index,
                    {"op": "query", "graph": self.plan["queries"][index]})

        self.closed_loop(next_op, records, depth=depth)
        return sum(1 for rec in records if not rec["ok"])

    def probe(self, graphs: list[dict]) -> list[dict]:
        """Insert each graph, one call at a time, spread over
        ``len(graphs) / rate`` seconds.  A call waits for the previous
        answer, so a stall of the service delays one insert, not every
        insert due while it lasted."""
        interval = 1.0 / self.plan["rate"]
        todo = list(reversed(graphs))
        records: list[dict] = []
        start = time.perf_counter()

        def next_op(conn):
            if not todo:
                return None
            slot = start + (len(graphs) - len(todo)) * interval
            time.sleep(max(0.0, slot - time.perf_counter()))
            return ("add", -1, {"op": "add_graph", "graph": todo.pop()})

        self.closed_loop(next_op, records)
        return records

    def run_open(self, records: list[dict]) -> float:
        """Send on schedule, then drain; returns when the last send went."""
        order = self.plan["order"]
        interval = 1.0 / self.plan["rate"]
        start = time.perf_counter()
        sent = 0
        while sent < len(order):
            now = time.perf_counter()
            while sent < len(order) and start + sent * interval <= now:
                index = order[sent]
                message = {"op": "query", "graph": self.plan["queries"][index]}
                conn = self.conns[sent % len(self.conns)]
                self.send(conn, ("query", index, message),
                          start + sent * interval, records)
                sent += 1
            if sent < len(order):
                timeout = max(0.0, start + sent * interval - time.perf_counter())
                for item in self.poll(timeout):
                    self.finish(*item)
        issue_end = time.perf_counter()
        self.drain()
        return issue_end

    def run_closed(self, records: list[dict]) -> float:
        """Keep every connection busy until the window closes, then drain;
        returns the end of the window."""
        ops = _Ops(self.plan)
        end = time.perf_counter() + self.plan["seconds"]

        def on_done(conn, rec):
            if rec["kind"] == "add" and rec["ok"]:
                ops.acked_adds.append(rec["gid"])

        self.closed_loop(lambda conn: ops.next(), records, end, on_done)
        return end

    def close(self) -> None:
        self.selector.close()
        for conn in self.conns:
            conn.sock.close()


def main(argv: list[str]) -> int:
    with open(argv[0]) as f:
        plan = json.load(f)
    gen = Generator(plan)
    try:
        if plan["mode"] == "probe":
            result = {"probe": gen.probe(plan["probe"])}
        else:
            records: list[dict] = []
            # The open loop's warm-up goes out at once, so a worker pool
            # that spawns on demand has every worker up before the window
            # (its peak RSS otherwise depends on whether two queries ever
            # overlapped).
            warmup = plan.get("warmup", [])
            warm_bad = gen.warmup(warmup, len(warmup) if plan["mode"] == "open" else 1)
            window_start = time.perf_counter()
            if plan["mode"] == "open":
                issue_end = gen.run_open(records)
            else:
                issue_end = gen.run_closed(records)
            result = {"warmup_failed": warm_bad,
                      "window": [window_start, time.perf_counter()],
                      "issue_end": issue_end, "ops": records}
    finally:
        gen.close()
    with open(argv[1], "w") as out:
        json.dump(result, out)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
