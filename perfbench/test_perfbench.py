"""Tests for the benchmark's own measurement helpers (no program runs)."""

from __future__ import annotations

import json
import os
import random
import time

import pytest

import common
import tracing


def _record(due, sent=None, seen=None, status="done"):
    return {"due": due, "sent": due if sent is None else sent, "seen": seen, "status": status}


class TestPercentileRule:
    def test_nearest_rank(self):
        values = list(range(1, 101))
        assert common.percentile(values, 50) == 50
        assert common.percentile(values, 95) == 95
        assert common.percentile(values, 100) == 100
        assert common.percentile([7], 99) == 7

    def test_empty_sample_raises(self):
        with pytest.raises(ValueError):
            common.percentile([], 50)

    @pytest.mark.parametrize(
        "n, expected",
        [(19, None), (20, 50.0), (100, 90.0), (199, 90.0), (200, 95.0),
         (999, 95.0), (1000, 99.0), (10_000, 99.9)],
    )
    def test_highest_percentile_with_ten_beyond(self, n, expected):
        assert common.highest_percentile(n) == expected
        if expected is not None:
            assert common.samples_beyond(n, expected) >= common.TAIL_SAMPLES

    def test_base_phase_supports_p95(self):
        # serve-http-open's base phase reports p95, so it needs >= 200 requests.
        assert common.samples_beyond(210, 95) >= common.TAIL_SAMPLES
        assert common.percentile_counts(200)["p95"] == 10


class TestLadderVerdict:
    START, SPAN = 100.0, 2.0

    def _steady(self, latency=0.02):
        dues = [self.START + i * 0.1 for i in range(20)]
        return [_record(d, seen=d + latency) for d in dues]

    def test_steady_rung_holds(self):
        assert common.rung_verdict(self._steady(), self.START, self.SPAN) == (True, "held")

    def test_any_refusal_fails(self):
        records = self._steady()
        records[3] = _record(records[3]["due"], status="refused")
        held, reason = common.rung_verdict(records, self.START, self.SPAN)
        assert not held and "refused" in reason

    def test_undecided_fails(self):
        records = self._steady()
        records[-1] = _record(records[-1]["due"], status="undecided")
        held, reason = common.rung_verdict(records, self.START, self.SPAN)
        assert not held and "not decided" in reason

    def test_latency_limit(self):
        assert common.rung_verdict(self._steady(0.199), self.START, self.SPAN)[0]
        held, reason = common.rung_verdict(self._steady(0.25), self.START, self.SPAN)
        assert not held and "p95" in reason

    def test_growing_backlog_fails(self):
        # Decisions keep pace for the first half, then stop until after
        # the rung: ten requests are outstanding at the last due time
        # against none at mid-rung, though p95 stays under the limit.
        records = []
        for i in range(20):
            due = self.START + i * 0.1
            seen = due + 0.01 if i < 10 else self.START + self.SPAN + 0.15
            records.append(_record(due, seen=seen))
        held, reason = common.rung_verdict(
            records, self.START, self.SPAN, limit_ms=2000.0
        )
        assert not held and "backlog growing" in reason

    def test_small_constant_backlog_is_not_growth(self):
        assert common.rung_verdict(self._steady(0.15), self.START, self.SPAN)[0]


class TestGenerators:
    def test_zipf_is_seeded(self):
        a = common.zipf_sampler(random.Random("s/1"))
        b = common.zipf_sampler(random.Random("s/1"))
        c = common.zipf_sampler(random.Random("s/2"))
        first = [a() for _ in range(500)]
        assert first == [b() for _ in range(500)]
        assert first != [c() for _ in range(500)]

    def test_zipf_skew_and_domain(self):
        draw = common.zipf_sampler(random.Random(3))
        counts = [0] * common.ZIPF_VALUES
        for _ in range(50_000):
            counts[draw()] += 1
        assert min(counts) > 0
        # P(rank 1) / P(rank 2) = 2 and P(rank 1) / P(rank 10) = 10 under Zipf(1).
        assert 1.8 < counts[0] / counts[1] < 2.2
        assert 8 < counts[0] / counts[9] < 12

    def test_poisson_is_seeded(self):
        a = common.poisson_offsets(random.Random(5), 100, 10.0)
        assert a == common.poisson_offsets(random.Random(5), 100, 10.0)
        assert a != common.poisson_offsets(random.Random(6), 100, 10.0)
        assert a == sorted(a) and a[0] > 0

    def test_poisson_rate(self):
        offsets = common.poisson_offsets(random.Random(1), 20_000, 50.0)
        assert 0.95 < 20_000 / offsets[-1] / 50.0 < 1.05

    def test_poisson_window(self):
        w = common.poisson_window(random.Random(9), 200, 20.0)
        assert w == common.poisson_window(random.Random(9), 200, 20.0)
        assert len(w) == 200 and w == sorted(w)
        assert 0 <= w[0] and w[-1] < 20.0


class TestDueTimeAccounting:
    def test_on_time_generator(self):
        records = [_record(0.0, seen=0.01), _record(0.1, seen=0.13)]
        assert common.due_latencies(records) == pytest.approx([0.01, 0.03])
        assert common.lateness(records) == [0.0, 0.0]

    def test_late_generator_is_charged(self):
        # The generator stalled 0.5 s before sending the second request:
        # its latency counts from when it was due, not when it was sent.
        records = [
            _record(0.0, sent=0.0, seen=0.01),
            _record(0.1, sent=0.6, seen=0.61),
            _record(0.2, sent=0.61, seen=0.62),
        ]
        assert common.due_latencies(records) == pytest.approx([0.01, 0.51, 0.42])
        assert common.lateness(records) == pytest.approx([0.0, 0.5, 0.41])

    def test_undecided_requests_have_no_latency(self):
        records = [_record(0.0, seen=None, status="undecided"), _record(0.1, seen=0.2)]
        assert common.due_latencies(records) == pytest.approx([0.1])

    def test_backlog(self):
        records = [_record(0.0, seen=0.5), _record(0.1, seen=0.15), _record(0.2, seen=None)]
        assert common.backlog_at(records, 0.12) == 2
        assert common.backlog_at(records, 0.3) == 2
        assert common.backlog_at(records, 0.6) == 1


class TestSelfTime:
    def test_recorder_self_time_excludes_children(self):
        rec = tracing.Recorder(capacity=4)
        inner = rec.span("inner", lambda: time.sleep(0.02))

        def outer():
            time.sleep(0.01)
            inner()
            inner()

        rec.span("outer", outer)()
        assert rec.count("inner") == 2 and rec.count("outer") == 1
        assert rec.self_time("outer") == pytest.approx(
            rec.inclusive("outer") - rec.inclusive("inner")
        )
        assert rec.top_level_time() == pytest.approx(rec.inclusive("outer"))
        assert rec.dropped == 0 and len(rec.ring) == 3

    def test_ring_overflow_keeps_exact_totals(self):
        rec = tracing.Recorder(capacity=2)
        noop = rec.span("noop", lambda: None)
        for _ in range(5):
            noop()
        assert rec.count("noop") == 5 and rec.dropped == 3 and len(rec.ring) == 2

    def test_ring_self_times_nesting(self):
        events = [
            ("X", "epoch", 0.0, 100.0, None),
            ("X", "pool", 10.0, 50.0, None),
            ("X", "round", 20.0, 10.0, None),
            ("X", "query", 15.0, 500.0, None),  # lifecycle span, ignored
            ("i", "split", 30.0, 0.0, None),
            ("X", "pool", 200.0, 20.0, None),
        ]
        totals = tracing.ring_self_times(events, {"epoch", "pool", "round"})
        assert totals == pytest.approx({"epoch": 50e-6, "pool": 60e-6, "round": 10e-6})

    def test_ring_coverage(self):
        events = [("X", "a", 0.0, 1e6, None), ("X", "b", 3e6, 1e6, None)]
        assert tracing.ring_coverage(events, 8.0) == pytest.approx(0.5)
        assert tracing.ring_coverage(events, 2.0) == 1.0
        assert tracing.ring_coverage([], 2.0) == 1.0


def test_interaction_map_covers_every_layer_metric():
    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(here, os.pardir, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    with open(os.path.join(here, "interaction_map.json")) as handle:
        rows = json.load(handle)["rows"]
    mapped = [name for row in rows for name in row["layer_metrics"]]
    assert sorted(mapped) == sorted(m["name"] for m in spec["per_layer"])
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    workloads = {w["name"] for w in spec["workloads"]}
    for row in rows:
        assert set(row["should_move"]) <= end_to_end
        assert set(row["on"]) | set(row["flat_on"]) <= workloads
