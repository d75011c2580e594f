#!/usr/bin/env python3
"""Serving benchmark: three workloads against a real ``repro serve``.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the repository root.  Each workload (``perfbench/workloads.json``
fixes its load; ``perfbench/README.md`` says why it exists):

1. generates its database, queries and graphs to insert from ``--seed``
   and computes the expected answers with an in-process, unsharded,
   uncached CFQL engine — outside every timed window;
2. starts ``repro serve`` through the CLI on a Unix socket (several times
   for ``setup_s``), drives it from a separate load-generator process
   (``loadgen.py``) and reads the ``stats`` verb before and after;
3. checks every answer, and for ``ingest-mixed`` kills the server with
   SIGKILL and checks the database it recovers from its store.

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` runs the workload once plain and once under
``traced_serve.py`` and prints the per-layer metrics.  The last line of
standard output is one JSON object; a failed correctness gate makes the
exit code non-zero.
"""

from __future__ import annotations

import argparse
import collections
import hashlib
import json
import math
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Server starts per run; ``setup_s`` is their median.  A start takes
#: under a second, and one start varies by a third on a shared host.
SETUP_REPEATS = 11
#: Seconds allowed for a server to answer its first ping.
START_TIMEOUT_S = 120.0
#: Most inserts per second of the mutation probe (one call at a time).
PROBE_RATE_PER_S = 200
#: Seconds between RSS readings while the load runs.
RSS_INTERVAL_S = 0.5
#: Seconds allowed for a graceful drain before the server is killed.
STOP_TIMEOUT_S = 30.0
LABELS = 62  # the AIDS-like alphabet; inventory queries cover every label


# ----------------------------------------------------------------------
# Processes
# ----------------------------------------------------------------------

def _children(pid: int) -> list[int]:
    found = []
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return found
    for task in tasks:
        try:
            with open(f"/proc/{pid}/task/{task}/children") as f:
                found.extend(int(c) for c in f.read().split())
        except OSError:
            pass
    return found


def descendants(pid: int) -> list[int]:
    """Every live process below ``pid``, depth first."""
    out, todo = [], [pid]
    while todo:
        for child in _children(todo.pop()):
            out.append(child)
            todo.append(child)
    return out


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def _wait_gone(pids: list[int], timeout: float) -> None:
    deadline = time.monotonic() + timeout
    while any(_alive(p) for p in pids) and time.monotonic() < deadline:
        time.sleep(0.01)
    for pid in pids:
        if _alive(pid):
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass
    deadline = time.monotonic() + 10.0
    while any(_alive(p) for p in pids) and time.monotonic() < deadline:
        time.sleep(0.01)


def peak_rss_mb(pid: int) -> float:
    """VmHWM summed over ``pid`` and its descendants, in MiB."""
    total_kb = 0
    for each in [pid, *descendants(pid)]:
        try:
            with open(f"/proc/{each}/status") as f:
                for line in f:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        except OSError:
            pass
    return total_kb / 1024.0


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


class Server:
    """One ``repro serve`` process (optionally under the span tracer)."""

    _serial = 0

    def __init__(self, db_path: Path, spec: dict, store: Path | None,
                 work: Path, spans_path: Path | None = None) -> None:
        Server._serial += 1
        self.address = f"unix:serve-{Server._serial}.sock"
        self.work = work
        cli = ["serve", str(db_path), "--listen", self.address,
               *spec["serve_args"]]
        if store is not None:
            cli += ["--index-store", str(store)]
        if "wal_compact" in spec:
            cli += ["--wal-compact", str(spec["wal_compact"])]
        if spans_path is None:
            self.argv = [sys.executable, "-m", "repro", *cli]
        else:
            self.argv = [sys.executable, str(HERE / "traced_serve.py"),
                         str(spans_path), *cli]
        self.proc: subprocess.Popen | None = None
        self.log_path = work / f"serve-{Server._serial}.log"

    def start(self) -> float:
        """Spawn the server; returns seconds until it answered ``ping``."""
        from repro.service.client import ServiceClient
        from repro.utils.errors import ReproError

        sock_path = self.work / self.address[len("unix:"):]
        log = open(self.log_path, "ab")
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            self.argv, env=_env(), cwd=self.work, stdout=log,
            stderr=subprocess.STDOUT, stdin=subprocess.DEVNULL)
        log.close()
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"server exited with {self.proc.returncode}:\n"
                    + self.log_path.read_text()[-2000:]
                )
            if sock_path.exists():
                try:
                    with ServiceClient(self.address, timeout=5.0) as client:
                        client.ping()
                    return time.perf_counter() - started
                except (OSError, ReproError):
                    pass
            if time.perf_counter() - started > START_TIMEOUT_S:
                raise RuntimeError("server did not answer ping in time")
            time.sleep(0.002)

    def client(self):
        from repro.service.client import ServiceClient

        return ServiceClient(self.address, timeout=120.0)

    def stop(self) -> None:
        """Graceful drain through the ``shutdown`` verb."""
        if self.proc is None or self.proc.poll() is not None:
            return
        family = descendants(self.proc.pid)
        try:
            with self.client() as client:
                client.shutdown()
            self.proc.wait(timeout=STOP_TIMEOUT_S)
        except Exception:
            self.kill()
            raise
        _wait_gone(family, STOP_TIMEOUT_S)

    def kill(self) -> None:
        """SIGKILL the server and every process below it at once, as a
        host crash would.  (Killing only the server leaves its
        process-host shard workers running: they hold the server's end of
        their own pipe, so they never see it close.)"""
        if self.proc is None:
            return
        family = descendants(self.proc.pid)
        for pid in [self.proc.pid, *family]:
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass
        self.proc.wait()
        _wait_gone(family, STOP_TIMEOUT_S)


# ----------------------------------------------------------------------
# Inputs and the reference
# ----------------------------------------------------------------------

def make_inputs(spec: dict, seed: int, seconds: int, work: Path) -> dict:
    """The run's inputs.  The database, the query universe and the graphs
    to insert come from the workload's constant ``input_seed``, so runs
    differ only in what ``--seed`` draws: the order of the measured
    queries, Zipf draws, op mix, insertion and removal order.  The open
    loop's warm-up queries are fixed too, so every run measures the same
    queries (which ones are in a run's slowest few percent would
    otherwise move its p95)."""
    from repro.graph.io import write_graph_database
    from repro.service.protocol import graph_key, graph_to_wire
    from repro.workloads.datasets import make_dataset
    from repro.workloads.querysets import generate_query_set

    fixed = random.Random(spec["input_seed"])
    drawn = random.Random(f"{spec['input_seed']}:{seed}")
    dataset = spec["dataset"]
    db = make_dataset(dataset["name"], seed=fixed.getrandbits(32),
                      scale=dataset["scale"])
    db_path = work / "db.txt"
    write_graph_database(db, db_path)
    if spec["mode"] == "open":
        needed = spec["warmup_queries"] + math.ceil(spec["rate_per_s"] * seconds)
    else:
        needed = spec["pool_size"]
    per_shape = math.ceil(needed / len(spec["shapes"]))
    queries, seen = [], set()
    for edges, dense in spec["shapes"]:
        taken = 0
        for q in generate_query_set(db, edges, dense, size=2 * per_shape,
                                    seed=fixed.getrandbits(64)):
            key = graph_key(q)
            if key not in seen and taken < per_shape:
                seen.add(key)
                queries.append(q)
                taken += 1
    fixed.shuffle(queries)
    if len(queries) < needed:
        raise RuntimeError(f"only {len(queries)} distinct queries, need {needed}")
    queries = queries[:needed]
    order = list(range(spec.get("warmup_queries", 0), needed))
    drawn.shuffle(order)
    inputs = {"db": db, "db_path": db_path, "queries": queries,
              "wire": [graph_to_wire(q) for q in queries], "order": order,
              "loadgen_seed": drawn.getrandbits(64)}
    if "fresh_graphs" in spec:
        fresh = make_dataset(dataset["name"], seed=fixed.getrandbits(32),
                             scale=spec["fresh_graphs"] / 800.0).graphs()
        drawn.shuffle(fresh)
        inputs["adds"] = [graph_to_wire(g) for g in fresh]
        removable = db.ids()
        drawn.shuffle(removable)
        inputs["removable"] = removable
    if "probe_mutations" in spec:
        inputs["probe"] = [graph_to_wire(g) for g in make_dataset(
            dataset["name"], seed=fixed.getrandbits(32),
            scale=spec["probe_mutations"] / 800.0).graphs()]
    return inputs


def reference_answers(db, queries) -> list[list[int]]:
    """Answers of the in-process, unsharded, uncached CFQL engine."""
    from repro.core import create_engine

    engine = create_engine(db, "CFQL")
    engine.build_index()
    return [sorted(engine.query(q).answers) for q in queries]


def cached_reference(db_path: Path, inputs: dict, cache_dir: Path) -> list[list[int]]:
    """:func:`reference_answers` for the fixed inputs, kept between runs
    in ``cache_dir`` under a hash of the inputs and of every source file
    of the program, so any change to either recomputes it."""
    digest = hashlib.sha256(db_path.read_bytes())
    digest.update(json.dumps(inputs["wire"]).encode())
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    cache = cache_dir / f"reference-{digest.hexdigest()[:32]}.json"
    if cache.is_file():
        return json.loads(cache.read_text())
    answers = reference_answers(inputs["db"], inputs["queries"])
    cache_dir.mkdir(parents=True, exist_ok=True)
    cache.write_text(json.dumps(answers))
    return answers


def inventory_queries() -> list:
    """One single-vertex query per label: together they name every graph."""
    from repro.graph.builder import GraphBuilder

    out = []
    for label in range(LABELS):
        builder = GraphBuilder(name=f"label-{label}")
        builder.add_vertices([label])
        out.append(builder.build())
    return out


# ----------------------------------------------------------------------
# One phase: start, load, check, stop
# ----------------------------------------------------------------------

def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def _run_loadgen(plan: dict, work: Path, tag: str,
                 server: Server) -> tuple[dict, float]:
    """Run the load generator to completion; returns its output and the
    server family's peak RSS, sampled while it ran (pool workers come and
    go, so one reading at the end can miss one)."""
    plan_path, out_path = work / f"plan-{tag}.json", work / f"ops-{tag}.json"
    plan_path.write_text(json.dumps(plan))
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "loadgen.py"), str(plan_path), str(out_path)],
        env=_env(), cwd=work,
    )
    deadline = time.monotonic() + plan["seconds"] + 120
    rss = 0.0
    while proc.poll() is None:
        if time.monotonic() > deadline:
            proc.kill()
            proc.wait()
            raise RuntimeError("load generator did not finish")
        rss = max(rss, peak_rss_mb(server.proc.pid))
        time.sleep(RSS_INTERVAL_S)
    if proc.returncode != 0:
        raise RuntimeError(f"load generator exited with {proc.returncode}")
    rss = max(rss, peak_rss_mb(server.proc.pid))
    return json.loads(out_path.read_text()), rss


def _check_queries(server: Server, queries, expected) -> list[dict]:
    """Ask every query once (sequentially, untimed); one record each."""
    records = []
    with server.client() as client:
        for q, want in zip(queries, expected):
            try:
                result = client.query(q)
                ok = (result["answers"] == want and result["failure"] is None
                      and not result["timed_out"])
                records.append({"ok": ok, "answers": result["answers"]})
            except Exception as exc:  # any failure is a failed operation
                records.append({"ok": False, "error": repr(exc)})
    return records


def run_phase(spec: dict, inputs: dict, seconds: int, work: Path,
              traced: bool) -> dict:
    tag = "traced" if traced else "plain"
    store = work / f"store-{tag}" if spec.get("store") else None
    spans_path = work / f"spans-{tag}.json" if traced else None
    server = Server(inputs["db_path"], spec, store, work, spans_path)
    phase: dict = {"setup_s": server.start(), "checks": []}
    try:
        with server.client() as client:
            stats0 = client.stats()
        store_before = _dir_bytes(store) if store is not None else 0
        plan = {
            "address": server.address, "mode": spec["mode"],
            "connections": spec["connections"], "seconds": seconds,
            "seed": inputs["loadgen_seed"], "queries": inputs["wire"],
        }
        if spec["mode"] == "open":
            plan.update(rate=spec["rate_per_s"],
                        warmup=list(range(spec["warmup_queries"])),
                        order=inputs["order"], expected=inputs["expected"])
        else:
            plan.update(warmup=list(range(len(inputs["wire"]))),
                        zipf_s=spec["zipf_s"], mix=spec.get("mix", {"query": 1.0}),
                        renumbered_share=spec.get("renumbered_share", 0.0),
                        adds=inputs.get("adds", []),
                        removable=inputs.get("removable", []),
                        expected=inputs.get("expected"))
        load, phase["rss_mb"] = _run_loadgen(plan, work, tag, server)
        phase.update(ops=load["ops"], window=load["window"],
                     issue_end=load["issue_end"],
                     warmup_failed=load["warmup_failed"])
        with server.client() as client:
            phase["stats0"], phase["stats1"] = stats0, client.stats()
        phase["probe"] = []
        if "probe" in inputs:
            # After every check, since the graphs stay in the database.
            phase["probe"] = _run_loadgen(
                {"address": server.address, "mode": "probe",
                 "connections": 1, "seconds": 0, "rate": PROBE_RATE_PER_S,
                 "probe": inputs["probe"]},
                work, tag + "-probe", server)[0]["probe"]
        if store is not None:
            phase["store_growth"] = _dir_bytes(store) - store_before
        if "mix" in spec:
            phase["checks"] += _final_state_checks(server, inputs, phase)
        if "mix" in spec and not traced:
            server.kill()
            restarted = Server(inputs["db_path"], spec, store, work)
            phase["recovery_s"] = restarted.start()
            server = restarted
            checks = _check_queries(
                server, phase["verify_queries"], phase["verify_expected"])
            phase["checks"] += checks + [
                _inventory_check(checks[-LABELS:], phase["expected_ids"])]
        server.stop()
    except BaseException:
        server.kill()
        raise
    if spans_path is not None:
        phase["spans"] = json.loads(spans_path.read_text())
    return phase


def _final_state_checks(server: Server, inputs: dict, phase: dict) -> list[dict]:
    """Quiesced check of a mutated database against the reference."""
    from repro.graph.database import GraphDatabase
    from repro.service.protocol import graph_from_wire

    final = GraphDatabase(name="final")
    base = inputs["db"]
    for gid in base.ids():
        final.add_graph_with_id(gid, base[gid])
    for op in phase["ops"]:
        if op["kind"] == "add" and op["ok"]:
            final.add_graph_with_id(op["gid"], graph_from_wire(inputs["adds"][op["query"]]))
    for op in phase["ops"]:
        if op["kind"] == "remove" and op["ok"]:
            final.remove_graph(op["gid"])
    queries = inputs["queries"] + inventory_queries()
    expected = reference_answers(final, queries)
    phase["verify_queries"], phase["verify_expected"] = queries, expected
    phase["expected_ids"] = sorted(final.ids())
    checks = _check_queries(server, queries, expected)
    return checks + [_inventory_check(checks[-LABELS:], phase["expected_ids"])]


def _inventory_check(records: list[dict], expected_ids: list[int]) -> dict:
    """Acked adds present and acked removes absent: the union of the
    per-label inventory answers is exactly the expected id set."""
    present = set()
    for record in records:
        present.update(record.get("answers", ()))
    return {"ok": sorted(present) == expected_ids}


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------

def _ms(seconds: float) -> float:
    return seconds * 1000.0


def _mean(values) -> float:
    values = list(values)
    return statistics.fmean(values) if values else 0.0


def _latencies(phase: dict, kinds: tuple[str, ...], open_loop: bool) -> list[float]:
    from measure import latency_samples

    ops = [
        {"ok": op["ok"],
         "latency_s": op["done"] - (op["due"] if open_loop else op["sent"])}
        for op in phase["ops"] if op["kind"] in kinds
    ]
    return latency_samples(ops)


def end_to_end(spec: dict, phase: dict, setups: list[float]) -> dict:
    """Latencies and rates are medians over sub-windows of the run
    (:func:`measure.chunked_percentile`), which other tenants of a shared
    host disturb in bursts; ``setup_s`` is the median over the run's starts."""
    from measure import chunked_percentile, chunked_rate, latency_samples

    open_loop = spec["mode"] == "open"
    queries = _latencies(phase, ("query",), open_loop)
    if phase["probe"]:
        mutations = latency_samples([
            {"ok": r["ok"], "latency_s": r["done"] - r["sent"]}
            for r in phase["probe"]])
    else:
        mutations = _latencies(phase, ("add", "remove"), open_loop)
    start, end = phase["window"]
    done = [op["done"] for op in phase["ops"] if op["ok"]]
    if open_loop:
        # The offered rate, unless the server falls behind and the drain
        # stretches the window: see the README.
        throughput = len(done) / (end - start)
    else:
        throughput = chunked_rate(done, start, phase["issue_end"])
    return {
        "setup_s": statistics.median(setups),
        "query_p50_ms": _ms(chunked_percentile(queries, 50)),
        "query_p95_ms": _ms(chunked_percentile(queries, 95)),
        "throughput_ops": throughput,
        "mutation_p50_ms": _ms(chunked_percentile(mutations, 50)),
        "mutation_p95_ms": _ms(chunked_percentile(mutations, 95)),
        "rss_mb": phase["rss_mb"],
    }


def _in_window(spans: list[list], window) -> list[list]:
    start, end = window
    return [s for s in spans if start <= s[2] <= end]


def per_layer(spec: dict, plain: dict, traced: dict) -> dict:
    from measure import error_rate, layer_self_times, outermost, percentile

    ops = plain["ops"]
    queries = [op for op in ops if op["kind"] == "query" and op["ok"]]
    executed = [op for op in queries if op.get("cache") != "hit"]
    mutations = [op for op in ops if op["kind"] in ("add", "remove")]
    s0, s1 = plain["stats0"], plain["stats1"]
    pooled = "--jobs" in spec["serve_args"]
    sharded = "--shards" in spec["serve_args"]

    window_spans = _in_window(traced["spans"], traced["window"])
    n_traced = max(1, len(traced["ops"]))
    n_traced_queries = max(1, sum(1 for op in traced["ops"] if op["kind"] == "query"))

    def durations(name, spans=window_spans, outer=False):
        rows = outermost(spans, name) if outer else [s for s in spans if s[1] == name]
        return [s[3] - s[2] for s in rows]

    batches = outermost(window_spans, "core.query_many")
    host = [s for s in window_spans if s[1] == "shard.host_query"]
    layer_self = layer_self_times(window_spans)

    def delta(path):
        a, b = s0, s1
        for key in path:
            a, b = (a or {}).get(key), (b or {}).get(key)
        return (b or 0) - (a or 0)

    def restarts(stats):
        workers = stats.get("workers") or {}
        rows = workers.get("shards") or [workers]
        return sum(row.get("restarts", 0) for row in rows)

    considered = delta(("pruning", "shard_queries"))
    imbalance = [
        max(op["shard_times"]) / statistics.fmean(op["shard_times"])
        for op in executed
        if len(op["shard_times"]) > 1 and statistics.fmean(op["shard_times"]) > 0
    ]
    open_lates = [op["sent"] - op["due"] for op in ops] if spec["mode"] == "open" else []
    user_bytes = sum(op["bytes"] for op in mutations if op["ok"])
    db_size = s0["engine"]["num_graphs"]
    precisions = [op["answers"] / op["candidates"] for op in executed
                  if op["candidates"]]
    traced_p50 = end_to_end(spec, traced, [traced["setup_s"]])["query_p50_ms"]
    plain_p50 = end_to_end(spec, plain, [plain["setup_s"]])["query_p50_ms"]
    return {
        "service.overhead_ms": _ms(statistics.median(
            (op["done"] - op["sent"]) - op["queue_wait_s"] - op["execution_s"]
            for op in queries)) if queries else 0.0,
        "service.decode_ms": _ms(sum(durations("service.decode")) / n_traced),
        "service.encode_ms": _ms(sum(durations("service.encode")) / n_traced),
        "service.cache_key_ms": _ms(sum(durations("service.cache_key"))
                                    / n_traced_queries),
        "service.queue_wait_p50_ms": _ms(percentile(
            [op["queue_wait_s"] for op in queries], 50)) if queries else 0.0,
        "service.queue_wait_p95_ms": _ms(percentile(
            [op["queue_wait_s"] for op in queries], 95)) if queries else 0.0,
        "service.batch_size_mean": _mean(op["batch_size"] for op in queries),
        "service.cache_hit_ratio": (
            (len(queries) - len(executed)) / len(queries) if queries else 0.0),
        "service.cache_dropped_per_mutation": (
            delta(("cache", "entries_dropped")) / len(mutations)
            if mutations else 0.0),
        "core.execute_ms": _ms(_mean(op["execution_s"] for op in executed)),
        "core.plan_ms": _ms(_mean(durations("core.plan"))),
        "core.plan_hit_ratio": (
            sum(1 for op in executed if op["plan_cache"] == "hit") / len(executed)
            if executed else 0.0),
        "core.mutation_ms": _ms(_mean(
            durations("core.mutation", traced["spans"], outer=True))),
        "core.execute_coverage": (
            sum(op["filtering_s"] + op["verification_s"] for op in executed)
            / sum(op["execution_s"] for op in executed) if executed else 0.0),
        "matching.filter_ms": _ms(_mean(op["filtering_s"] for op in executed)),
        "matching.verify_ms": _ms(_mean(op["verification_s"] for op in executed)),
        "matching.candidates_per_query": _mean(op["candidates"] for op in executed),
        "matching.candidate_ratio": (
            _mean(op["candidates"] for op in executed) / db_size),
        "matching.precision": _mean(precisions),
        "exec.dispatch_ms": _ms(_mean(
            (s[3] - s[2]) - s[5]["max"] for s in batches)) if pooled else 0.0,
        "exec.worker_restarts": restarts(s1) - restarts(s0),
        "shard.route_ms": _ms(_mean(
            (s[3] - s[2]) - s[5]["max"] for s in batches)) if sharded else 0.0,
        "shard.imbalance": _mean(imbalance),
        "shard.host_rtt_ms": _ms(_mean((s[3] - s[2]) - s[5]["sum"] for s in host)),
        "shard.prune_ratio": (
            delta(("pruning", "shards_pruned")) / considered if considered else 0.0),
        "index.build_s": sum(durations("index.build", traced["spans"], outer=True)),
        "store.bytes_per_user_byte": (
            plain.get("store_growth", 0) / user_bytes if user_bytes else 0.0),
        "store.compactions": delta(("requests", "compactions")),
        "store.compact_ms": _ms(_mean(durations("store.compact", outer=True))),
        "store.recovery_s": plain.get("recovery_s", 0.0),
        "loadgen.late_p95_ms": _ms(percentile(open_lates, 95)) if open_lates else 0.0,
        "error_rate": error_rate(phase_records(plain)),
        "trace.overhead_ms": traced_p50 - plain_p50,
        **{f"self.{layer}_ms": _ms(layer_self.get(layer, 0.0) / n_traced)
           for layer in ("service", "core", "exec", "shard", "store")},
    }


def phase_records(phase: dict) -> list[dict]:
    """Every attempted operation of a phase: measured ops, probes, checks,
    and one failed record per failed warm-up query."""
    return (phase["ops"] + phase["probe"] + phase["checks"]
            + [{"ok": False, "code": "warmup"}] * phase["warmup_failed"])


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------

def cpu_loop_rate(seconds: float = 0.5) -> float:
    """Passes per second of a fixed pure-Python loop.  Taken before and
    after each run, it shows a run made while other tenants of a shared
    host slowed it down."""
    passes, start = 0, time.perf_counter()
    while time.perf_counter() - start < seconds:
        total = 0
        for i in range(10_000):
            total += i
        passes += 1
    return passes / (time.perf_counter() - start)


def fingerprint() -> dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "platform": platform.platform(), "loadavg": list(os.getloadavg()),
            "cpu_loop": cpu_loop_rate()}


def run_workload(name: str, spec: dict, seed: int, seconds: int, trace: bool,
                 work: Path) -> dict:
    host = fingerprint()
    inputs = make_inputs(spec, seed, seconds, work)
    if "mix" not in spec:  # a mutated database is checked after the load
        inputs["expected"] = cached_reference(inputs["db_path"], inputs,
                                              work.parent / "reference")
    setups: list[float] = []
    if not trace:
        for i in range(SETUP_REPEATS - 1):
            store = work / f"store-setup-{i}" if spec.get("store") else None
            server = Server(inputs["db_path"], spec, store, work)
            try:
                setups.append(server.start())
            finally:
                # Killed, not drained: a drain can wait seconds for the
                # service's accept thread, and only the start is timed.
                server.kill()
            if store is not None:
                shutil.rmtree(store, ignore_errors=True)
    plain = run_phase(spec, inputs, seconds, work, traced=False)
    setups.append(plain["setup_s"])
    phases = [plain]
    notes = []
    if trace:
        phases.append(run_phase(spec, inputs, seconds, work, traced=True))
        metrics = per_layer(spec, plain, phases[1])
        notes += _reconciliation(plain, phases[1])
        notes += [f"plain run: {key} = {value:.6g}" for key, value
                  in end_to_end(spec, plain, setups).items()]
    else:
        metrics = end_to_end(spec, plain, setups)
    records = [r for phase in phases for r in phase_records(phase)]
    failures = collections.Counter(
        r.get("code") or "check" for r in records if not r["ok"])
    attempted, failed = len(records), sum(failures.values())
    host["loadavg_after"] = list(os.getloadavg())
    host["cpu_loop_after"] = cpu_loop_rate()
    server_procs = 1 + _pool_width(spec)
    return {"workload": name, "host": host, "metrics": metrics, "notes": notes,
            "attempted": attempted, "failed": failed,
            "failures": dict(failures), "server_processes": server_procs,
            "queries": sum(1 for op in plain["ops"] if op["kind"] == "query"),
            "mutations": sum(1 for op in plain["ops"] if op["kind"] != "query")
            + len(plain["probe"])}


def _reconciliation(plain: dict, traced: dict) -> list[str]:
    """How the layers account for client latency and for execution."""
    from measure import outermost

    queries = [op for op in plain["ops"] if op["kind"] == "query" and op["ok"]]
    latency = _mean(op["done"] - op["sent"] for op in queries)
    wait = _mean(op["queue_wait_s"] for op in queries)
    execute = _mean(op["execution_s"] for op in queries)
    notes = [f"mean query latency {_ms(latency):.4g} ms = overhead "
             f"{_ms(latency - wait - execute):.4g} + queue wait {_ms(wait):.4g} "
             f"+ execute {_ms(execute):.4g}"]
    executed = [op for op in queries if op.get("cache") != "hit"]
    if executed:
        matched = _mean(op["filtering_s"] + op["verification_s"] for op in executed)
        notes.append(f"matching filter + verify {_ms(matched):.4g} ms of "
                     f"core.execute_ms {_ms(_mean(op['execution_s'] for op in executed)):.4g}")
    # A batch span covers the self time of every server-side layer below
    # it (core, exec, shard, store); its slowest query's reported time is
    # the execution it waited for.  Worker processes are not traced.
    batches = outermost(_in_window(traced["spans"], traced["window"]),
                        "core.query_many")
    slowest = sum(s[5]["max"] for s in batches)
    if slowest:
        wall = sum(s[3] - s[2] for s in batches)
        notes.append(f"server layer self time {_ms(wall / len(batches)):.4g} ms "
                     f"per batch = {wall / slowest:.4g} x the slowest query's "
                     f"execution_s ({_ms(slowest / len(batches)):.4g} ms)")
    return notes


def _pool_width(spec: dict) -> int:
    args = spec["serve_args"]
    for flag in ("--jobs", "--shards"):
        if flag in args:
            return int(args[args.index(flag) + 1])
    return 0


def report(result: dict, units: dict) -> None:
    from measure import tail_percentile

    host = result["host"]
    print(f"# workload {result['workload']}: nproc={host['nproc']} "
          f"python={host['python']} platform={host['platform']}")
    print(f"# loadavg before={host['loadavg']} after={host['loadavg_after']}")
    print(f"# host speed: {host['cpu_loop']:.0f} loop passes/s before, "
          f"{host['cpu_loop_after']:.0f} after")
    procs = result["server_processes"] + 1
    if procs > (host["nproc"] or 1):
        print(f"# note: {result['server_processes']} server processes + 1 load "
              f"generator on {host['nproc']} cores (oversubscribed)")
    tail = tail_percentile(result["queries"])
    print(f"# {result['queries']} queries, {result['mutations']} mutations; "
          f"highest supported query percentile: p{tail}")
    for note in result["notes"]:
        print(f"# {note}")
    for key, value in result["metrics"].items():
        print(f"{key} = {value:.6g} {units.get(key, '')}")
    print(f"# attempted={result['attempted']} failed={result['failed']} "
          f"error_rate={result['failed'] / result['attempted']:.6g}")
    if result["failures"]:
        print(f"# failures by cause: {result['failures']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    bench_path = ROOT / "BENCHMARK.json"
    if not (SRC / "repro" / "cli.py").is_file() or not bench_path.is_file():
        print(f"error: run from a repository checkout ({SRC / 'repro'} and "
              f"{bench_path} are required)", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    bench = json.loads(bench_path.read_text())
    specs = json.loads((HERE / "workloads.json").read_text())
    names = list(specs) if args.workload == "all" else [args.workload]
    if any(n not in specs for n in names):
        print(f"error: unknown workload {args.workload!r}; known: "
              f"{', '.join(specs)} or all", file=sys.stderr)
        return 2
    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}

    work_root = ROOT / ".perfbench_work"
    exit_code = 0
    for name in names:
        work = work_root / f"{name}-{args.seed}-{os.getpid()}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        cwd = os.getcwd()
        os.chdir(work)
        try:
            result = run_workload(name, specs[name], args.seed, args.seconds,
                                  bool(args.trace), work)
        finally:
            os.chdir(cwd)
            shutil.rmtree(work, ignore_errors=True)
        missing = [m for m in units if m not in result["metrics"]]
        if missing:
            raise RuntimeError(f"metrics not computed: {missing}")
        result["metrics"] = {m: result["metrics"][m] for m in units}
        report(result, units)
        correct = result["failed"] == 0
        if not correct:
            exit_code = 1
        print(json.dumps({
            "correct": correct, "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {m: {"value": v, "unit": units[m]}
                        for m, v in result["metrics"].items()},
        }), flush=True)
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
