"""Pure arithmetic of the serving benchmark: percentiles, failure
accounting and span self time.  No I/O, so the self-tests cover it."""

from __future__ import annotations

import math
import statistics
from collections import defaultdict

#: Percentiles the report may quote, highest first.
PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

#: A tail percentile is quoted only with at least this many samples above it.
MIN_TAIL_SAMPLES = 10

#: Most sub-windows a run is split into for the medians of sub-windows.
MAX_CHUNKS = 20


def _rank(n: int, p: float) -> int:
    # The epsilon keeps float error (99.9 * 10000 / 100) off the next rank.
    return max(1, math.ceil(p * n / 100.0 - 1e-9))


def percentile(samples: list[float], p: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least ``p``%
    of the samples at or below it."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    return ordered[_rank(len(ordered), p) - 1]


def samples_beyond(n: int, p: float) -> int:
    """How many of ``n`` samples lie above the nearest-rank ``p``th."""
    return n - _rank(n, p)


def tail_percentile(n: int) -> float | None:
    """The highest quotable percentile for ``n`` samples: the highest of
    :data:`PERCENTILES` with at least :data:`MIN_TAIL_SAMPLES` samples
    beyond it, or None when even the median has too few."""
    for p in PERCENTILES:
        if samples_beyond(n, p) >= MIN_TAIL_SAMPLES:
            return p
    return None


def chunked_percentile(samples: list[float], p: float) -> float:
    """Median over consecutive sub-windows of each one's ``p``th percentile.

    ``samples`` are in completion order.  Each sub-window is large enough
    to quote ``p`` (at least :data:`MIN_TAIL_SAMPLES` beyond it), so a
    short burst of contention from outside moves one sub-window, not the
    result; with too few samples for two sub-windows this is the plain
    percentile.
    """
    min_size = next(n for n in range(1, 100_000)
                    if samples_beyond(n, p) >= MIN_TAIL_SAMPLES)
    chunks = min(MAX_CHUNKS, len(samples) // min_size)
    if chunks <= 1:
        return percentile(samples, p)
    size = len(samples) // chunks
    return statistics.median(
        percentile(samples[i * size:(i + 1) * size], p) for i in range(chunks)
    )


def chunked_rate(times: list[float], start: float, end: float) -> float:
    """Median over one-second (or longer) slices of ``[start, end)`` of
    the events per second completed in each slice."""
    chunks = max(1, min(MAX_CHUNKS, int(end - start)))
    width = (end - start) / chunks
    counts = [0] * chunks
    for t in times:
        if start <= t < end:
            counts[int((t - start) / width)] += 1
    return statistics.median(counts) / width


def latency_samples(ops: list[dict]) -> list[float]:
    """Latencies in seconds, with every failed, refused or wrong
    operation counted as missing any latency limit (infinite)."""
    return [op["latency_s"] if op["ok"] else math.inf for op in ops]


def error_rate(ops: list[dict]) -> float:
    """Share of attempted operations that failed, were refused, timed
    out or answered wrongly."""
    if not ops:
        return 0.0
    return sum(1 for op in ops if not op["ok"]) / len(ops)


def union_length(intervals: list[tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping intervals."""
    total = 0.0
    end = -math.inf
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def self_times(spans: list[list]) -> dict[int, float]:
    """Self time of each span: its duration minus the part of its
    interval that its child spans cover.

    ``spans`` are ``[id, name, start, end, parent_id, note]`` rows as the
    traced server writes them.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span_id, _, start, end, parent, _ in spans:
        if parent is not None:
            children[parent].append((start, end))
    result = {}
    for span_id, _, start, end, _, _ in spans:
        clipped = [
            (max(lo, start), min(hi, end))
            for lo, hi in children.get(span_id, ())
            if hi > start and lo < end
        ]
        result[span_id] = (end - start) - union_length(clipped)
    return result


def layer_self_times(spans: list[list]) -> dict[str, float]:
    """Summed self time per layer, the layer being the span name's
    prefix before the first dot (``service.decode`` → ``service``)."""
    own = self_times(spans)
    totals: dict[str, float] = defaultdict(float)
    for span_id, name, *_ in spans:
        totals[name.split(".", 1)[0]] += own[span_id]
    return dict(totals)


def outermost(spans: list[list], name: str) -> list[list]:
    """Spans called ``name`` not nested inside another span of that name
    (an engine method that calls itself on a shard counts once)."""
    by_id = {row[0]: row for row in spans}
    chosen = []
    for row in spans:
        if row[1] != name:
            continue
        parent = row[4]
        nested = False
        while parent is not None:
            ancestor = by_id.get(parent)
            if ancestor is None:
                break
            if ancestor[1] == name:
                nested = True
                break
            parent = ancestor[4]
        if not nested:
            chosen.append(row)
    return chosen
