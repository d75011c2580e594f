"""Self-tests of the benchmark's arithmetic: ``python3 -m pytest perfbench``."""

from __future__ import annotations

import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from measure import (  # noqa: E402
    chunked_percentile,
    chunked_rate,
    error_rate,
    latency_samples,
    layer_self_times,
    outermost,
    percentile,
    samples_beyond,
    self_times,
    tail_percentile,
    union_length,
)


class TestPercentileRule:
    def test_nearest_rank(self):
        samples = list(range(1, 101))
        assert percentile(samples, 50) == 50
        assert percentile(samples, 95) == 95
        assert percentile(samples, 100) == 100
        assert percentile([7.0], 95) == 7.0

    def test_order_does_not_matter(self):
        assert percentile([5, 1, 4, 2, 3], 50) == 3

    def test_empty_is_an_error(self):
        with pytest.raises(ValueError):
            percentile([], 50)

    def test_samples_beyond(self):
        assert samples_beyond(200, 95) == 10
        assert samples_beyond(199, 95) == 9
        assert samples_beyond(1000, 99) == 10

    @pytest.mark.parametrize("n, expected", [
        (10, None), (19, None), (20, 50.0), (40, 75.0), (100, 90.0),
        (199, 90.0), (200, 95.0), (999, 95.0), (1000, 99.0), (10000, 99.9),
    ])
    def test_highest_percentile_with_ten_samples_beyond(self, n, expected):
        assert tail_percentile(n) == expected
        if expected is not None:
            assert samples_beyond(n, expected) >= 10


class TestSubWindowMedians:
    def test_too_few_samples_is_the_plain_percentile(self):
        samples = [float(i) for i in range(1, 300)]
        assert chunked_percentile(samples, 95) == percentile(samples, 95)

    def test_a_burst_moves_one_sub_window_only(self):
        samples = [1.0] * 2000
        samples[:200] = [50.0] * 200  # one slow stretch
        assert percentile(samples, 95) == 50.0
        assert chunked_percentile(samples, 95) == 1.0

    def test_rate_is_the_median_slice(self):
        times = [i / 100 for i in range(1000)]  # 100 events/s for 10 s
        times += [2.5] * 500                     # a burst in one slice
        assert chunked_rate(times, 0.0, 10.0) == pytest.approx(100.0)

    def test_rate_ignores_events_outside_the_window(self):
        assert chunked_rate([-1.0, 0.5, 11.0], 0.0, 1.0) == pytest.approx(1.0)


class TestFailureAccounting:
    def ops(self, latencies, failed=()):
        return [{"ok": i not in failed, "latency_s": lat}
                for i, lat in enumerate(latencies)]

    def test_failed_ops_miss_every_latency_limit(self):
        samples = latency_samples(self.ops([0.001] * 10, failed={3}))
        assert samples.count(math.inf) == 1
        assert max(samples) == math.inf

    def test_a_few_failures_leave_the_median_but_not_the_tail(self):
        ops = self.ops([0.01] * 100, failed={1, 2, 3, 4, 5, 6})
        samples = latency_samples(ops)
        assert percentile(samples, 50) == 0.01
        assert percentile(samples, 95) == math.inf

    def test_refused_and_wrong_count_as_errors(self):
        ops = self.ops([0.01] * 8)
        ops[0]["ok"] = False  # refused ``overloaded``
        ops[1]["ok"] = False  # wrong answer
        assert error_rate(ops) == pytest.approx(0.25)
        assert error_rate([]) == 0.0


class TestSpanSelfTime:
    def test_union_length_merges_overlaps(self):
        assert union_length([(0, 2), (1, 3), (5, 6)]) == pytest.approx(4)
        assert union_length([(0, 5), (1, 2)]) == pytest.approx(5)
        assert union_length([]) == 0.0

    def test_parent_minus_children(self):
        spans = [
            [0, "core.query_many", 0.0, 10.0, None, None],
            [1, "core.plan", 1.0, 3.0, 0, None],
            [2, "exec.run_many", 4.0, 9.0, 0, None],
        ]
        own = self_times(spans)
        assert own[0] == pytest.approx(3.0)
        assert own[1] == pytest.approx(2.0)
        assert own[2] == pytest.approx(5.0)

    def test_overlapping_children_count_once(self):
        # Two shard hosts running in parallel under one route span.
        spans = [
            [0, "shard.route", 0.0, 10.0, None, None],
            [1, "shard.host_query", 1.0, 8.0, 0, None],
            [2, "shard.host_query", 2.0, 9.0, 0, None],
        ]
        assert self_times(spans)[0] == pytest.approx(2.0)

    def test_children_clipped_to_parent(self):
        spans = [
            [0, "core.query_many", 0.0, 4.0, None, None],
            [1, "shard.route", 3.0, 6.0, 0, None],
        ]
        assert self_times(spans)[0] == pytest.approx(3.0)

    def test_self_times_sum_to_root_duration(self):
        spans = [
            [0, "core.query_many", 0.0, 10.0, None, None],
            [1, "shard.route", 1.0, 9.0, 0, None],
            [2, "shard.host_query", 2.0, 8.0, 1, None],
        ]
        layers = layer_self_times(spans)
        assert layers == pytest.approx({"core": 2.0, "shard": 8.0})
        assert sum(layers.values()) == pytest.approx(10.0)

    def test_outermost_skips_nested_same_name(self):
        spans = [
            [0, "core.mutation", 0.0, 5.0, None, None],
            [1, "core.mutation", 1.0, 2.0, 0, None],
            [2, "core.mutation", 6.0, 7.0, None, None],
        ]
        assert [s[0] for s in outermost(spans, "core.mutation")] == [0, 2]
