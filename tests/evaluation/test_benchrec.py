"""Tests for the versioned benchmark-record schema (benchrec)."""

import json
from dataclasses import asdict, replace

import pytest

from repro.evaluation.benchrec import (
    SCHEMA_VERSION,
    BenchRecord,
    BenchRecordError,
    compare_records,
    context_differences,
    current_git_sha,
    machine_fingerprint,
    main,
    median_with_spread,
    read_record,
    render_comparison,
    validate_record,
    write_record,
)


def _record(**overrides) -> BenchRecord:
    base = dict(
        name="load_slo",
        machine=machine_fingerprint(),
        git_sha="a" * 40,
        engine="packed-fused",
        config={"n_sessions": 8, "dim": 256},
        metrics={"tick_latency_p99_ms": 4.5, "throughput_windows_per_s": 900.0},
    )
    base.update(overrides)
    return BenchRecord(**base)


class TestEnvelope:
    def test_fingerprint_names_the_comparable_dimensions(self):
        fingerprint = machine_fingerprint()
        assert {"platform", "machine", "cpu_count", "python", "numpy"} \
            <= fingerprint.keys()
        assert fingerprint["cpu_count"] >= 1

    def test_git_sha_resolves_in_this_checkout(self):
        sha = current_git_sha()
        assert len(sha) == 40
        assert set(sha) <= set("0123456789abcdef")

    def test_git_sha_unknown_outside_a_checkout(self, tmp_path):
        assert current_git_sha(tmp_path) == "unknown"

    def test_construction_validates(self):
        with pytest.raises(BenchRecordError, match="non-empty"):
            _record(name="")
        with pytest.raises(BenchRecordError, match="must be a number"):
            _record(metrics={"p99": "fast"})
        with pytest.raises(BenchRecordError, match="must be a number"):
            _record(metrics={"flag": True})


class TestRoundTrip:
    def test_write_read_round_trips(self, tmp_path):
        record = _record()
        path = write_record(record, tmp_path / "BENCH_x.json")
        assert read_record(path) == record

    def test_rejects_schema_version_mismatch(self, tmp_path):
        payload = asdict(_record())
        payload["schema_version"] = SCHEMA_VERSION + 1
        path = tmp_path / "future.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(BenchRecordError, match="schema version mismatch"):
            read_record(path)

    @pytest.mark.parametrize("mutilate, message", [
        (lambda p: p.pop("metrics"), "missing fields"),
        (lambda p: p.update(surprise=1), "unknown fields"),
        (lambda p: p.update(metrics=[1, 2]), "must be dict"),
        (lambda p: p.update(git_sha=123), "must be str"),
    ])
    def test_rejects_malformed_payloads(self, tmp_path, mutilate, message):
        payload = asdict(_record())
        mutilate(payload)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(BenchRecordError, match=message):
            read_record(path)

    def test_rejects_non_json(self, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("{not json")
        with pytest.raises(BenchRecordError, match="cannot read"):
            read_record(path)

    def test_validate_record_rejects_non_object(self):
        with pytest.raises(BenchRecordError, match="JSON object"):
            validate_record([1, 2, 3])


class TestComparison:
    def test_per_metric_deltas_and_ratios(self):
        baseline = _record()
        fresh = _record(metrics={
            "tick_latency_p99_ms": 9.0,
            "throughput_windows_per_s": 450.0,
        })
        deltas = {d.metric: d for d in compare_records(baseline, fresh)}
        assert deltas["tick_latency_p99_ms"].delta == pytest.approx(4.5)
        assert deltas["tick_latency_p99_ms"].ratio == pytest.approx(2.0)
        assert deltas["throughput_windows_per_s"].ratio == pytest.approx(0.5)
        assert not any(d.one_sided for d in deltas.values())

    def test_one_sided_metrics_are_flagged_not_dropped(self):
        baseline = _record()
        fresh = _record(metrics={"tick_latency_p99_ms": 4.5,
                                 "brand_new_metric": 1.0})
        deltas = {d.metric: d for d in compare_records(baseline, fresh)}
        assert deltas["brand_new_metric"].one_sided
        assert deltas["throughput_windows_per_s"].one_sided
        assert not deltas["tick_latency_p99_ms"].one_sided

    def test_refuses_cross_harness_comparison(self):
        with pytest.raises(BenchRecordError, match="different harnesses"):
            compare_records(_record(), _record(name="other_bench"))

    def test_render_names_hosts_and_metrics(self):
        text = render_comparison(_record(), _record())
        assert "load_slo" in text
        assert "tick_latency_p99_ms" in text
        assert "1.00x" in text
        assert "not like for like" not in text

    def test_render_names_config_and_host_mismatches(self):
        """A smoke run against a full baseline is flagged, not refused."""
        cores = machine_fingerprint()["cpu_count"]
        smoke = _record(
            config={"n_sessions": 2, "dim": 256, "smoke": True},
            machine={**machine_fingerprint(), "cpu_count": cores + 1},
        )
        assert context_differences(_record(), _record()) == []
        causes = context_differences(_record(), smoke)
        assert causes == [
            "config n_sessions: 8 -> 2",
            "config smoke: absent -> True",
            f"cpu_count: {cores} -> {cores + 1}",
        ]
        text = render_comparison(_record(), smoke)
        assert "not like for like" in text
        for cause in causes:
            assert cause in text
        # Still a full, report-only delta table.
        assert "tick_latency_p99_ms" in text


class TestSpread:
    def test_helper_writes_median_and_quartile_siblings(self):
        assert median_with_spread("wps", [5.0, 1.0, 4.0, 2.0, 3.0]) == {
            "wps": 3.0, "wps_p25": 2.0, "wps_p75": 4.0,
        }

    def test_siblings_fold_into_their_metric_row(self):
        spread = median_with_spread("wps", [90.0, 95.0, 100.0, 105.0, 110.0])
        baseline = _record(metrics={**spread, "ratio": 2.0})
        fresh = _record(metrics={**spread, "wps": 104.0, "ratio": 3.0})
        deltas = {d.metric: d for d in compare_records(baseline, fresh)}
        assert sorted(deltas) == ["ratio", "wps"]
        assert deltas["wps"].spread == pytest.approx(10.0)
        assert deltas["wps"].within_spread
        assert deltas["ratio"].spread is None
        assert deltas["ratio"].within_spread is None

    def test_render_labels_within_and_outside_spread(self):
        baseline = _record(metrics=median_with_spread(
            "wps", [90.0, 95.0, 100.0, 105.0, 110.0]
        ))
        near = _record(metrics={"wps": 109.0})
        far = _record(metrics={"wps": 111.0})
        assert "within spread" in render_comparison(baseline, near)
        assert "outside spread" in render_comparison(baseline, far)
        # A record without repeats is never judged.
        plain = render_comparison(_record(), _record())
        assert "spread" not in plain


class TestModuleCli:
    def test_validate_ok(self, tmp_path, capsys):
        path = write_record(_record(), tmp_path / "r.json")
        assert main(["validate", str(path)]) == 0
        assert "OK" in capsys.readouterr().out

    def test_validate_rejects_bad_record(self, tmp_path, capsys):
        payload = asdict(_record())
        payload["schema_version"] = 99
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        assert main(["validate", str(path)]) == 1
        assert "INVALID" in capsys.readouterr().out

    def test_compare_reports_deltas_exit_zero(self, tmp_path, capsys):
        a = write_record(_record(), tmp_path / "a.json")
        b = write_record(
            replace(_record(), metrics={"tick_latency_p99_ms": 9.0}),
            tmp_path / "b.json",
        )
        assert main(["compare", str(a), str(b)]) == 0
        out = capsys.readouterr().out
        assert "tick_latency_p99_ms" in out

    def test_compare_fails_on_schema_error(self, tmp_path, capsys):
        a = write_record(_record(), tmp_path / "a.json")
        bad = tmp_path / "bad.json"
        bad.write_text("[]")
        assert main(["compare", str(a), str(bad)]) == 1
        assert "INVALID" in capsys.readouterr().out

    def test_usage_on_wrong_arguments(self, capsys):
        assert main(["frobnicate"]) == 2
        assert "usage" in capsys.readouterr().out
