"""Worker processes die with their owner, even when the owner is SIGKILLed.

Pool and shard workers learn of their owner's death as EOF on their pipe.
That only happens if no process still holds the owner's end of it — and a
forked worker inherits its own parent end plus those of every worker forked
before it.  The owner here is a subprocess holding a 2-worker
``ParallelExecutor`` and a 2-shard process host; it prints the worker pids
and waits to be killed.
"""

from __future__ import annotations

import contextlib
import json
import os
import signal
import subprocess
import sys
import time

import pytest

pytestmark = pytest.mark.skipif(
    not os.path.isdir("/proc"), reason="reads process states from /proc"
)

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

OWNER = """
import json, time
from repro.core import create_engine, create_pipeline
from repro.exec.parallel import ParallelExecutor
from repro.graph import Graph, generate_database
from repro.shard.engine import ShardedEngine

db = generate_database(num_graphs=8, num_vertices=10, avg_degree=2.5,
                       num_labels=3, seed=5)
queries = [Graph.from_edge_list([0, 1], [(0, 1)], name=f"q{i}") for i in range(4)]
executor = ParallelExecutor(jobs=2)
pooled = create_engine(db, "CFQL", executor=executor)
pooled.build_index()
pooled.query_many(queries, time_limit=30.0)
sharded = ShardedEngine(db, 2, lambda: create_pipeline("CFQL"), shard_host="process")
sharded.build_index()
sharded.query_many(queries)
pids = [w.proc.pid for w in executor._workers]
pids += [row["host"]["pid"] for row in sharded.shard_stats()]
print(json.dumps(pids), flush=True)
time.sleep(120)
"""


def exited(pid: int) -> bool:
    """Whether ``pid`` is gone or a zombie awaiting a reaper that is not
    its (dead) owner."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] == "Z"
    except FileNotFoundError:
        return True


def test_workers_exit_when_owner_is_sigkilled():
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"))
    owner = subprocess.Popen(
        [sys.executable, "-c", OWNER],
        stdout=subprocess.PIPE, env=env, text=True,
    )
    try:
        pids = json.loads(owner.stdout.readline())
        assert len(pids) == 4 and not any(exited(pid) for pid in pids)
        owner.send_signal(signal.SIGKILL)
        owner.wait(timeout=10.0)
        deadline = time.monotonic() + 5.0
        alive = pids
        while alive and time.monotonic() < deadline:
            time.sleep(0.05)
            alive = [pid for pid in alive if not exited(pid)]
    finally:
        if owner.poll() is None:  # pragma: no cover - cleanup on failure
            owner.kill()
            owner.wait(timeout=10.0)
        owner.stdout.close()
    for pid in alive:  # pragma: no cover - cleanup on failure
        with contextlib.suppress(ProcessLookupError):
            os.kill(pid, signal.SIGKILL)
    assert alive == [], f"workers outlived their SIGKILLed owner: {alive}"
