"""Tests for the load harness (repro.serve.loadgen)."""

import pytest

from repro.evaluation.benchrec import read_record, write_record
from repro.hdc.engine import resolve_engine_name
from repro.serve.loadgen import (
    LoadConfig,
    LoadGenerator,
    _SocketTransport,
    _train_templates,
    latency_summary_ms,
    min_samples_for_percentile,
    nearest_rank_percentile,
    run_load_test,
)
from repro.serve.metrics import gateway_metrics
from repro.serve.service import http_get


class TestNearestRankPercentile:
    """Exactness on known inputs — no interpolation, ever."""

    def test_hundred_samples_map_to_ranks(self):
        samples = list(range(1, 101))  # 1..100
        assert nearest_rank_percentile(samples, 50.0) == 50.0
        assert nearest_rank_percentile(samples, 99.0) == 99.0
        assert nearest_rank_percentile(samples, 99.9) == 100.0
        assert nearest_rank_percentile(samples, 100.0) == 100.0

    def test_returns_an_observed_sample_not_a_blend(self):
        # Interpolation would yield 5.5 for the median of [1, 10].
        assert nearest_rank_percentile([1.0, 10.0], 50.0) == 1.0
        assert nearest_rank_percentile([3.0, 1.0, 2.0], 50.0) == 2.0

    def test_p0_is_the_minimum(self):
        assert nearest_rank_percentile([7.0, 3.0, 9.0], 0.0) == 3.0

    def test_single_sample_is_every_percentile(self):
        for p in (0.0, 50.0, 99.9, 100.0):
            assert nearest_rank_percentile([4.2], p) == 4.2

    def test_input_order_is_irrelevant(self):
        assert nearest_rank_percentile([9, 1, 5, 3, 7], 50.0) == 5.0

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="no samples"):
            nearest_rank_percentile([], 50.0)

    def test_rejects_out_of_range_percentile(self):
        with pytest.raises(ValueError, match=r"\[0, 100\]"):
            nearest_rank_percentile([1.0], 101.0)

    def test_summary_reports_every_slo_metric_in_ms(self):
        summary = latency_summary_ms([0.001, 0.002, 0.003, 0.004])
        assert summary["tick_latency_p50_ms"] == pytest.approx(2.0)
        assert summary["tick_latency_p99_ms"] == pytest.approx(4.0)
        assert summary["tick_latency_p99_9_ms"] == pytest.approx(4.0)
        assert summary["tick_latency_mean_ms"] == pytest.approx(2.5)
        assert summary["tick_latency_max_ms"] == pytest.approx(4.0)


class TestLoadConfig:
    def test_chunk_samples_follows_fs_and_tick(self):
        assert LoadConfig(fs=256.0, tick_s=0.5).chunk_samples == 128
        assert LoadConfig(fs=512.0, tick_s=1.0).chunk_samples == 512

    @pytest.mark.parametrize("bad", [
        dict(n_sessions=0),
        dict(n_ticks=0),
        dict(warmup_ticks=-1),
        dict(rate=-0.5),
        dict(mode="carrier-pigeon"),
        dict(n_templates=0),
        dict(native_threads=-1),
        dict(transport="smoke-signals"),
    ])
    def test_rejects_invalid_shapes(self, bad):
        with pytest.raises(ValueError):
            LoadConfig(**bad)

    def test_native_threads_defaults_off(self):
        assert LoadConfig().native_threads == 0


class TestMinSamplesForPercentile:
    def test_known_percentiles(self):
        assert min_samples_for_percentile(50.0) == 2
        assert min_samples_for_percentile(99.0) == 100
        assert min_samples_for_percentile(99.9) == 1001

    def test_consistent_with_nearest_rank(self):
        """At exactly n samples, p maps strictly below the maximum."""
        for p in (50.0, 90.0, 99.0, 99.9):
            n = min_samples_for_percentile(p)
            assert nearest_rank_percentile(range(1, n + 1), p) < n
            assert nearest_rank_percentile(range(1, n), p) == n - 1

    def test_rejects_out_of_range(self):
        for p in (-1.0, 100.0):
            with pytest.raises(ValueError, match=r"\[0, 100\)"):
                min_samples_for_percentile(p)


class TestNativeThreadPlumbing:
    def test_run_pins_threads_before_spawning_workers(self, monkeypatch):
        """A non-zero knob reaches configure_native_threads pre-fork."""
        import repro.hdc.native as native_module

        pinned = []
        monkeypatch.setattr(
            native_module, "configure_native_threads", pinned.append
        )
        config = LoadConfig(
            n_sessions=2, n_ticks=2, warmup_ticks=1, dim=128,
            n_workers=1, native_threads=2,
        )
        LoadGenerator(config).run()
        assert pinned == [2]

    def test_warns_when_ticks_cannot_resolve_the_tail(self):
        config = LoadConfig(
            n_sessions=2, n_ticks=2, warmup_ticks=0, dim=128, n_workers=1,
        )
        with pytest.warns(RuntimeWarning, match="p99_9"):
            LoadGenerator(config).run()

    def test_run_leaves_threads_alone_by_default(self, monkeypatch):
        import repro.hdc.native as native_module

        pinned = []
        monkeypatch.setattr(
            native_module, "configure_native_threads", pinned.append
        )
        config = LoadConfig(
            n_sessions=2, n_ticks=2, warmup_ticks=1, dim=128,
            n_workers=1,
        )
        LoadGenerator(config).run()
        assert pinned == []


SMOKE_CONFIG = LoadConfig(
    n_sessions=6, n_electrodes=6, dim=256, n_ticks=8,
    warmup_ticks=2, n_workers=2, mode="inline", seed=3,
    n_templates=2,
)


@pytest.fixture(scope="module")
def direct_report():
    return run_load_test(SMOKE_CONFIG)


class TestSmokeRun:
    """One tiny end-to-end run against an inline gateway."""

    @pytest.fixture(scope="class")
    def report(self, direct_report):
        return direct_report

    def test_no_dropped_sessions(self, report):
        assert report.dropped_sessions == 0
        assert all(
            count > 0 for count in report.events_per_session.values()
        )
        assert len(report.events_per_session) == 6

    def test_latency_log_covers_every_measured_tick(self, report):
        assert len(report.latencies_s) == report.config.n_ticks
        assert all(latency > 0 for latency in report.latencies_s)
        assert (
            report.metrics["tick_latency_p50_ms"]
            <= report.metrics["tick_latency_p99_ms"]
            <= report.metrics["tick_latency_p99_9_ms"]
        )

    def test_throughput_counts_fleet_windows(self, report):
        assert report.metrics["throughput_windows_per_s"] > 0
        assert report.metrics["sessions"] == 6.0

    def test_backpressure_onset_is_one_past_the_queue_bound(self, report):
        assert report.metrics["backpressure_onset_chunks"] == (
            report.config.max_pending + 1
        )

    def test_worker_cycle_metrics_present_with_two_workers(self, report):
        assert report.metrics["migrated_on_remove"] >= 1
        assert report.metrics["recovery_ticks_after_remove"] >= 1
        assert report.metrics["worker_cycle_recovery_s"] > 0

    def test_engine_resolved(self, report):
        assert report.engine == resolve_engine_name(report.config.backend)

    def test_report_round_trips_through_benchrec(self, report, tmp_path):
        record = report.record("load_slo")
        loaded = read_record(write_record(record, tmp_path / "r.json"))
        assert loaded == record
        assert loaded.config["n_sessions"] == 6
        assert loaded.config["transport"] == "direct"
        assert loaded.metrics == report.metrics


class _MetricsWatchingGenerator(LoadGenerator):
    """A load generator that scrapes its gateway's ``/metrics`` before
    every call the harness makes into it, and once more before
    shutdown."""

    def _build_gateway(self, templates):
        gateway = super()._build_gateway(templates)
        self.snapshots = []
        for name in ("push_many", "drain", "remove_worker", "add_worker",
                     "shutdown"):
            setattr(gateway, name, self._watched(gateway, name))
        return gateway

    def _watched(self, gateway, name):
        method = getattr(gateway, name)

        def call(*args, **kwargs):
            self.snapshots.append(gateway_metrics(gateway))
            return method(*args, **kwargs)

        return call


def _monotonic_counters(metrics: dict) -> list:
    hist = metrics["tick_latency"]
    return [
        metrics["ticks_total"],
        metrics["windows_total"],
        metrics["sessions_ticked_total"],
        hist["count"],
        hist["sum_s"],
        *hist["counts"],
    ]


class TestMetricsOnlyCountUp:
    def test_load_test_never_moves_metrics_backwards(self):
        generator = _MetricsWatchingGenerator(SMOKE_CONFIG)
        report = generator.run()
        assert "worker_cycle_recovery_s" in report.metrics
        series = [_monotonic_counters(m) for m in generator.snapshots]
        for earlier, later in zip(series, series[1:]):
            assert all(b >= a for a, b in zip(earlier, later))
        first, last = generator.snapshots[0], generator.snapshots[-1]
        assert last["ticks_total"] > first["ticks_total"]
        assert last["tick_latency"]["count"] == last["ticks_total"]


@pytest.mark.service
class TestSocketTransportRun:
    """The same steady-state phase, driven through the network service."""

    @pytest.fixture(scope="class")
    def report(self):
        config = LoadConfig(
            n_sessions=4, n_electrodes=6, dim=256, n_ticks=6,
            warmup_ticks=1, n_workers=2, mode="inline", seed=3,
            n_templates=2, transport="socket",
        )
        return run_load_test(config)

    def test_every_session_served_over_the_wire(self, report):
        assert report.dropped_sessions == 0
        assert len(report.events_per_session) == 4

    def test_latencies_are_timed_by_the_client(self, report):
        assert len(report.latencies_s) == report.config.n_ticks
        assert all(latency > 0 for latency in report.latencies_s)
        assert report.metrics["throughput_windows_per_s"] > 0

    def test_steady_state_metric_names_match_direct_mode(
        self, report, direct_report
    ):
        probes = {
            "backpressure_onset_chunks", "max_pending",
            "rebalance_remove_s", "rebalance_add_s",
            "migrated_on_remove", "migrated_on_add",
            "recovery_ticks_after_remove", "recovery_ticks_after_add",
            "worker_cycle_recovery_s",
        }
        assert probes <= set(direct_report.metrics)
        assert set(report.metrics) == set(direct_report.metrics) - probes

    def test_client_latencies_include_the_gateway_time(self):
        # Ticks driven exactly as the socket transport drives them: the
        # client-side clock brackets the gateway's own tick timing, so
        # its sum can only exceed what /metrics adds up.
        generator = LoadGenerator(LoadConfig(
            n_sessions=3, n_electrodes=6, dim=256, n_workers=2,
            seed=5, n_templates=1, transport="socket",
        ))
        gateway = generator._build_gateway(
            _train_templates(generator.config)
        )
        sources = generator._build_sources()
        transport = _SocketTransport(gateway)
        address = transport.runner.service.address
        try:
            _, before = http_get(*address, "/metrics")
            latencies = [
                generator._tick(transport, sources) for _ in range(12)
            ]
            _, after = http_get(*address, "/metrics")
        finally:
            transport.close()
        assert after["ticks_total"] - before["ticks_total"] == 12
        gateway_s = (
            after["tick_latency"]["sum_s"] - before["tick_latency"]["sum_s"]
        )
        assert 0 < gateway_s <= sum(latencies)

    def test_direct_only_probes_are_skipped(self, report):
        assert "backpressure_onset_chunks" not in report.metrics
        assert "worker_cycle_recovery_s" not in report.metrics

    def test_transport_recorded_in_benchrec_config(self, report, tmp_path):
        from repro.evaluation.benchrec import read_record, write_record

        loaded = read_record(
            write_record(report.record("load_socket"), tmp_path / "s.json")
        )
        assert loaded.config["transport"] == "socket"
