"""Unit tests for the serving observability surface (repro.serve.metrics)."""

import io
import json
import logging

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve import ShardedStreamGateway, TickStats
from repro.serve.metrics import (
    LATENCY_BUCKET_BOUNDS_S,
    JsonLogFormatter,
    gateway_metrics,
    service_logger,
)
from tests.serve.conftest import build_fleet


def oracle_histogram(latencies_s) -> dict:
    """Brute-force cumulative histogram of a latency sequence.

    The reference the gateway's running counters must match:
    ``counts[i]`` is the number of samples ``<= bounds_s[i]`` and
    samples above the last bound appear only in ``count``.
    """
    samples = list(latencies_s)
    return {
        "bounds_s": list(LATENCY_BUCKET_BOUNDS_S),
        "counts": [
            sum(1 for sample in samples if sample <= bound)
            for bound in LATENCY_BUCKET_BOUNDS_S
        ],
        "count": len(samples),
        "sum_s": float(sum(samples)),
    }


def recorded_histogram(latencies_s) -> dict:
    """The ``/metrics`` histogram of a gateway that ticked at these
    latencies (recorded straight into its :class:`TickStats`)."""
    with ShardedStreamGateway(1, mode="inline") as gateway:
        for latency_s in latencies_s:
            gateway.tick_stats.record(latency_s, 1, 1)
        metrics = gateway_metrics(gateway)
    assert metrics["tick_latency"]["count"] == metrics["ticks_total"]
    return metrics["tick_latency"]


def assert_matches_oracle(latencies_s) -> None:
    hist = recorded_histogram(latencies_s)
    expected = oracle_histogram(latencies_s)
    assert hist["bounds_s"] == expected["bounds_s"]
    assert hist["counts"] == expected["counts"]
    assert hist["count"] == expected["count"]
    assert hist["sum_s"] == pytest.approx(expected["sum_s"], abs=1e-12)


_LATENCIES = st.one_of(
    st.sampled_from((0.0,) + LATENCY_BUCKET_BOUNDS_S),
    st.floats(0.0, 2 * LATENCY_BUCKET_BOUNDS_S[-1]),
)


class TestLatencyHistogram:
    def test_cumulative_le_semantics(self):
        hist = recorded_histogram([0.0005, 0.002, 0.004, 10.0])
        assert hist["bounds_s"] == list(LATENCY_BUCKET_BOUNDS_S)
        # cumulative, and 10.0 overflows every bound
        assert hist["counts"][:4] == [1, 2, 3, 3]
        assert hist["counts"][-1] == 3
        assert hist["count"] == 4
        assert hist["sum_s"] == pytest.approx(10.0065)

    def test_boundary_sample_lands_in_its_bucket(self):
        hist = recorded_histogram([LATENCY_BUCKET_BOUNDS_S[0]])
        assert hist["counts"] == [1] * len(LATENCY_BUCKET_BOUNDS_S)
        assert_matches_oracle(LATENCY_BUCKET_BOUNDS_S)

    def test_empty_log(self):
        hist = recorded_histogram([])
        assert hist["counts"] == [0] * len(LATENCY_BUCKET_BOUNDS_S)
        assert hist["count"] == 0
        assert hist["sum_s"] == 0.0

    def test_counts_are_monotonic_on_default_bounds(self):
        hist = recorded_histogram([0.0003 * i for i in range(200)])
        assert hist["counts"] == sorted(hist["counts"])

    def test_bounds_ascend(self):
        assert list(LATENCY_BUCKET_BOUNDS_S) == sorted(
            set(LATENCY_BUCKET_BOUNDS_S)
        )

    @settings(max_examples=60, deadline=None)
    @given(st.lists(_LATENCIES, max_size=40))
    def test_counters_match_the_brute_force_oracle(self, latencies_s):
        assert_matches_oracle(latencies_s)

    def test_count_is_ticks_total_after_70000_ticks(self):
        # Past 65,536 ticks (about 9 h of 0.5 s ticks) the histogram
        # keeps counting with the tick counter.
        with ShardedStreamGateway(1, mode="inline") as gateway:
            for _ in range(70_000):
                gateway.tick_stats.record(0.0002, 1, 1)
            metrics = gateway_metrics(gateway)
        hist = metrics["tick_latency"]
        assert hist["count"] == metrics["ticks_total"] == 70_000
        assert hist["counts"][0] == 70_000


class TestTickStats:
    def test_counters(self):
        stats = TickStats()
        stats.record(0.002, 4, 8)
        stats.record(0.003, 4, 8)
        assert stats.ticks == 2
        assert stats.windows == 16
        assert stats.sessions_ticked == 8
        assert stats.latency_sum_s == pytest.approx(0.005)
        assert sum(stats.bucket_counts) == 2


class TestGatewayMetrics:
    def test_snapshot_mirrors_gateway_introspection(self):
        detectors, signals = build_fleet(n_sessions=3, seconds=2.0)
        with ShardedStreamGateway(2, mode="inline") as gateway:
            for session_id, detector in detectors.items():
                gateway.open(session_id, detector)
            session_id = next(iter(signals))
            gateway.push(session_id, signals[session_id][:64])
            gateway.submit(session_id, signals[session_id][64:128])

            metrics = gateway_metrics(gateway)
            assert metrics["mode"] == "inline"
            assert metrics["workers"] == 2
            assert metrics["sessions_open"] == 3
            assert metrics["shard_sessions"] == {
                worker_id: len(sessions)
                for worker_id, sessions in gateway.shard_map().items()
            }
            assert metrics["queue_depths"][session_id] == 1
            assert metrics["queued_chunks_total"] == 1
            assert metrics["ticks_total"] == 1
            assert metrics["tick_latency"]["count"] == 1

            # A scrape is read-only: a second snapshot is identical.
            assert gateway_metrics(gateway) == metrics
            assert json.dumps(metrics)  # JSON-serialisable as-is
            gateway.drain()


class TestJsonLogging:
    def _logged_line(self, **extra) -> dict:
        stream = io.StringIO()
        logger = service_logger("test.serve.jsonlog", stream=stream)
        logger.info("session opened", extra=extra)
        return json.loads(stream.getvalue())

    def test_one_json_object_per_line_with_extras(self):
        payload = self._logged_line(session_id="p-1", worker="w0")
        assert payload["event"] == "session opened"
        assert payload["level"] == "info"
        assert payload["logger"] == "test.serve.jsonlog"
        assert payload["session_id"] == "p-1"
        assert payload["worker"] == "w0"
        assert isinstance(payload["ts"], float)

    def test_non_json_extras_degrade_to_str_not_crash(self):
        payload = self._logged_line(path=object())
        assert isinstance(payload["path"], str)

    def test_exception_info_is_captured(self):
        stream = io.StringIO()
        logger = service_logger("test.serve.jsonlog.exc", stream=stream)
        try:
            raise ValueError("boom")
        except ValueError:
            logger.warning("request failed", exc_info=True)
        payload = json.loads(stream.getvalue())
        assert "ValueError: boom" in payload["exc"]

    def test_service_logger_is_idempotent(self):
        first = service_logger("test.serve.jsonlog.idem")
        second = service_logger("test.serve.jsonlog.idem")
        assert first is second
        assert len(second.handlers) == 1
        assert not second.propagate

    def test_formatter_uses_record_created_not_a_new_clock(self):
        # RPR002 territory: log timestamps must come from the record
        # the logging framework stamped, not a second wall-clock read.
        record = logging.LogRecord(
            "n", logging.INFO, "p", 1, "msg", None, None
        )
        record.created = 123.4567891
        payload = json.loads(JsonLogFormatter().format(record))
        assert payload["ts"] == round(123.4567891, 6)
