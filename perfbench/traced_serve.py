"""Run ``repro serve`` with spans recorded around each layer's entry points.

    python traced_serve.py SPANS.json serve DB --listen ADDR [serve flags]

Everything after the spans path is the ``repro`` command line.  The
bootstrap wraps the public functions listed in :data:`TARGETS` in this
(the server's) process, keeps one span per call in memory, and writes
them all to ``SPANS.json`` once the service has drained.  Worker and
shard child processes start from a fresh import and are not traced;
their time reaches the trace through the results they report.

A span is ``[id, name, start, end, parent_id, note]`` with
``time.perf_counter`` timestamps.  The parent is the innermost open span
of the same thread; a span opened with an empty stack in a helper thread
adopts the open span named in :data:`CROSS_THREAD_PARENTS` (the router
fans each shard out on its own thread).  ``note`` carries what the
wrapped call returned that the analysis needs, such as the slowest
worker-reported query time of a batch.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time


def _query_times(results) -> dict:
    times = [r.query_time for r in results]
    return {"sum": sum(times), "max": max(times, default=0.0)}


def _shard_times(results) -> dict:
    slowest = 0.0
    for r in results:
        for row in r.metadata.get("shards", {}).get("per_shard", ()):
            slowest = max(slowest, row.get("time_s", 0.0))
    return {"max": slowest}


#: (span name, module, attribute path, note extractor or None).
TARGETS = (
    ("service.decode", "repro.service.protocol", "decode_line", None),
    ("service.decode", "repro.service.server", "graph_from_wire", None),
    ("service.encode", "repro.service.server", "encode_message", None),
    ("service.cache_key", "repro.service.server", "graph_key", None),
    ("core.query_many", "repro.core.engine",
     "SubgraphQueryEngine.query_many", _query_times),
    ("core.query_many", "repro.shard.engine",
     "ShardedEngine.query_many", _shard_times),
    ("core.plan", "repro.matching.plan", "PlanCache.get", None),
    ("core.mutation", "repro.core.engine", "SubgraphQueryEngine.add_graph", None),
    ("core.mutation", "repro.core.engine",
     "SubgraphQueryEngine.remove_graph", None),
    ("core.mutation", "repro.shard.engine", "ShardedEngine.add_graph", None),
    ("core.mutation", "repro.shard.engine", "ShardedEngine.remove_graph", None),
    ("exec.run_many", "repro.exec.parallel", "ParallelExecutor.run_many", None),
    ("shard.route", "repro.shard.router", "ShardRouter.query_many", None),
    ("shard.host_query", "repro.shard.host",
     "ShardProcessHost.query_many", _query_times),
    ("index.build", "repro.core.engine",
     "SubgraphQueryEngine.build_index", None),
    ("index.build", "repro.shard.engine", "ShardedEngine.build_index", None),
    ("store.compact", "repro.core.engine",
     "SubgraphQueryEngine.compact_store", None),
    ("store.compact", "repro.shard.engine", "ShardedEngine.compact_store", None),
)

#: Span name → the open span (by name) it hangs under when it starts on
#: a thread with nothing open.
CROSS_THREAD_PARENTS = {"shard.host_query": "shard.route"}


class Tracer:
    """In-memory span recorder shared by every wrapped function."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._open_by_name: dict[str, int] = {}

    def wrap(self, name: str, func, note=None):
        @functools.wraps(func)
        def traced(*args, **kwargs):
            stack = getattr(self._local, "stack", None)
            if stack is None:
                stack = self._local.stack = []
            if stack:
                parent = stack[-1]
            else:
                adopt = CROSS_THREAD_PARENTS.get(name)
                parent = self._open_by_name.get(adopt) if adopt else None
            span_id = next(self._ids)
            row = [span_id, name, time.perf_counter(), 0.0, parent, None]
            stack.append(span_id)
            self._open_by_name[name] = span_id
            try:
                result = func(*args, **kwargs)
                if note is not None:
                    row[5] = note(result)
                return result
            finally:
                row[3] = time.perf_counter()
                stack.pop()
                if self._open_by_name.get(name) == span_id:
                    del self._open_by_name[name]
                self.spans.append(row)

        return traced

    def install(self) -> None:
        for name, module_name, path, note in TARGETS:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            setattr(owner, attr, self.wrap(name, getattr(owner, attr), note))


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print("usage: traced_serve.py SPANS.json serve DB --listen ADDR ...",
              file=sys.stderr)
        return 2
    spans_path, cli_argv = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    from repro.cli import main as repro_main

    try:
        return repro_main(cli_argv)
    finally:
        with open(spans_path, "w") as out:
            json.dump(tracer.spans, out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
