"""Tests of the benchmark itself: tracing, failure accounting, contracts.

Run with ``PYTHONPATH=src python -m pytest perfbench -q``.  The workload
runs here use toy shapes (a few electrodes, d=256) so they take a few
seconds; the real shapes are in ``perfbench.workloads.WORKLOADS``.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import threading
import time
import types
from pathlib import Path

import numpy as np
import pytest

from perfbench import results
from perfbench.tracing import (
    PER_LAYER_METRICS,
    Target,
    Tracer,
    coverage,
    layer_stats,
)
from perfbench.workloads import (
    END_TO_END,
    WORKLOADS,
    OfflineConfig,
    ServeConfig,
    run_offline,
    run_serve,
    segment_bounds,
)

ROOT = Path(__file__).resolve().parent.parent

TINY_OFFLINE = OfflineConfig(
    n_electrodes=4, dim=256, duration_s=100.0,
    seizures=((40.0, 10.0), (75.0, 10.0)),
    split=(("interictal_duration_s", 10.0), ("ictal_max_s", 10.0)),
    windows_per_op=8, chunk_samples=200, check_s=20.0, peak_s=5.0,
)
TINY_SERVE = ServeConfig(n_sessions=6, n_electrodes=4, dim=256)


# ----------------------------------------------------------------------
# Tracer
# ----------------------------------------------------------------------


@pytest.fixture
def fake_layers(monkeypatch):
    """A module with an outer call that calls an inner one."""
    module = types.ModuleType("perfbench_fake_layers")

    def inner(delay):
        time.sleep(delay)

    def outer(delay):
        time.sleep(delay)
        module.inner(delay)

    module.inner, module.outer = inner, outer
    monkeypatch.setitem(sys.modules, module.__name__, module)
    targets = (
        Target("a", module.__name__, "outer"),
        Target("b", module.__name__, "inner"),
    )
    return module, targets


def test_self_time_excludes_children(fake_layers):
    module, targets = fake_layers
    tracer = Tracer(targets)
    with tracer:
        t0 = time.perf_counter()
        module.outer(0.02)
        t1 = time.perf_counter()
    stats = layer_stats(tracer)
    assert stats["a"].calls == stats["b"].calls == 1
    assert 0.018 < stats["a"].self_s < 0.03
    assert 0.018 < stats["b"].self_s < 0.03
    assert stats["a"].total_s >= stats["a"].self_s + stats["b"].self_s
    assert coverage(tracer, [(t0, t1)]) > 0.95
    assert coverage(tracer, [(t0, t0 + 0.01), (t1, t1 + 0.01)]) < 0.6
    # Uninstalled: calls run straight through, no new spans.
    module.outer(0.0)
    assert len(tracer.spans) == 2


def test_coverage_counts_only_named_work(fake_layers):
    module, targets = fake_layers
    # The operation's entry call is opaque: half of it is its own
    # unnamed work (the sleep before it calls inner), which coverage
    # must not count.
    entry = dataclasses.replace(targets[0], opaque=True)
    tracer = Tracer((entry, targets[1]))
    with tracer:
        t0 = time.perf_counter()
        module.outer(0.02)
        t1 = time.perf_counter()
    assert 0.3 < coverage(tracer, [(t0, t1)]) < 0.7


def test_parents_are_tracked_per_thread(fake_layers):
    module, targets = fake_layers
    tracer = Tracer(targets)
    with tracer:
        thread = threading.Thread(target=module.inner, args=(0.03,))
        thread.start()
        module.outer(0.01)
        thread.join(timeout=10)
    assert not thread.is_alive()
    inner_spans = [s for s in tracer.spans if s[0] == 1]
    parents = sorted(str(s[7]) for s in inner_spans)
    # One inner call ran under outer (parent 0), the other in its own
    # thread with no parent — not mistaken for a child of outer.
    assert parents == ["0", "None"]


def test_tracer_restores_the_originals():
    from repro.hdc import engine, spatial_packed

    original = spatial_packed.PackedSpatialEncoder.encode_packed
    kernel = engine._EngineBase.__dict__["grouped_kernel"]
    with Tracer():
        assert spatial_packed.PackedSpatialEncoder.encode_packed is not original
    assert spatial_packed.PackedSpatialEncoder.encode_packed is original
    assert engine._EngineBase.__dict__["grouped_kernel"] is kernel


def _tiny_detector(backend: str):
    from repro.core.config import LaelapsConfig
    from repro.core.detector import LaelapsDetector
    from repro.core.training import TrainingSegments
    from repro.data.synthetic import (
        SeizurePlan,
        SynthesisParams,
        SyntheticIEEGGenerator,
    )

    recording = SyntheticIEEGGenerator(
        3, SynthesisParams(fs=256.0), seed=5
    ).generate(40.0, [SeizurePlan(20.0, 10.0)])
    detector = LaelapsDetector(
        3, LaelapsConfig(dim=256, fs=256.0, backend=backend)
    ).fit(recording.data,
          TrainingSegments(ictal=((20.0, 30.0),), interictal=(0.0, 10.0)))
    return detector, recording


def test_subclass_overrides_are_traced(monkeypatch):
    # packed-native overrides the packed encoder and the grouped kernel
    # and calls its own bitsliced kernels; the pure-Python twins stand
    # in for numba here.
    from repro.evaluation import runner
    from repro.hdc import native

    monkeypatch.setenv(native.NATIVE_PURE_PYTHON_ENV, "1")
    detector, recording = _tiny_detector("packed-native")
    override = native.NativeSpatialEncoder.encode_packed
    tracer = Tracer()
    with tracer:
        assert native.NativeSpatialEncoder.encode_packed is not override
        assert native.PackedNativeEngine.grouped_kernel is not (
            native.grouped_classify_packed_native)
        runner.predict_windows(detector, recording.data[:2048])
    assert native.NativeSpatialEncoder.encode_packed is override
    stats = layer_stats(tracer)
    assert stats["hdc.spatial"].calls > 0
    assert stats["hdc.bitsliced"].calls > 0
    names = {tracer.targets[record[0]].attr for record in tracer.spans}
    assert "native_bundle_exceeds" in names


# ----------------------------------------------------------------------
# Workloads: outputs checked, failures counted
# ----------------------------------------------------------------------


def test_segments_reproduce_the_whole_span():
    detector, recording = _tiny_detector("auto")
    whole = detector.predict(recording.data)
    spec = detector.config.window_spec
    parts = [
        detector.predict(recording.data[start:stop])
        for start, stop, _ in segment_bounds(
            recording.data.shape[0], spec.step_samples,
            detector.symbolizer.margin, 7,
        )
    ]
    assert np.array_equal(np.concatenate([p.labels for p in parts]),
                          whole.labels)
    assert np.array_equal(np.concatenate([p.distances for p in parts]),
                          whole.distances)


def test_offline_run_is_correct_and_traced(tmp_path):
    outcome = run_offline(TINY_OFFLINE, 3, 0.2, True, tmp_path)
    assert outcome.correct, (outcome.failed, outcome.attempted)
    assert set(outcome.metrics) == {name for name, _ in END_TO_END}
    assert all(value > 0 for value, _ in outcome.metrics.values())
    assert outcome.layers["evaluation.runner.read_bytes"] > 0
    assert outcome.layers["hdc.spatial.calls"] > 0
    # At this toy shape the streamed runner's own loop is a visible
    # share; the real shapes are above 0.99.
    assert 0.5 < outcome.layers["trace.coverage"] <= 1.0


def test_corrupted_offline_output_is_counted(tmp_path, monkeypatch):
    from repro.evaluation import runner

    original = runner.predict_windows_streamed

    def corrupted(detector, signal, chunk_samples):
        preds = original(detector, signal, chunk_samples)
        labels = preds.labels.copy()
        labels[:1] ^= 1
        return dataclasses.replace(preds, labels=labels)

    monkeypatch.setattr(runner, "predict_windows_streamed", corrupted)
    outcome = run_offline(TINY_OFFLINE, 3, 0.2, False, tmp_path)
    assert not outcome.correct
    assert outcome.failed / outcome.attempted > 0


def test_serve_run_is_correct(tmp_path):
    outcome = run_serve(TINY_SERVE, 4, 0.2, False, tmp_path)
    assert outcome.correct, (outcome.failed, outcome.attempted)
    assert all(value > 0 for value, _ in outcome.metrics.values())


def test_corrupted_serve_output_is_counted(tmp_path, monkeypatch):
    from repro.serve.gateway import ShardedStreamGateway

    original = ShardedStreamGateway.push_many

    def corrupted(self, chunks):
        events = original(self, chunks)
        for session_events in events.values():
            for k, event in enumerate(session_events):
                session_events[k] = dataclasses.replace(
                    event, label=1 - event.label
                )
        return events

    monkeypatch.setattr(ShardedStreamGateway, "push_many", corrupted)
    outcome = run_serve(TINY_SERVE, 4, 0.2, False, tmp_path)
    assert not outcome.correct
    assert outcome.failed / outcome.attempted > 0


def test_wire_run_checks_probes_and_checkpoints(tmp_path):
    config = dataclasses.replace(TINY_SERVE, wire=True)
    outcome = run_serve(config, 4, 0.5, True, tmp_path)
    assert outcome.correct, (outcome.failed, outcome.attempted)
    assert outcome.report["healthz_probes"][0] > 0
    assert outcome.report["checkpoint_s"][0] > 0
    assert outcome.layers["serve.service.bytes_in"] > 0
    assert outcome.layers["core.persistence.bytes"] > 0


# ----------------------------------------------------------------------
# Result sets and the benchmark contract
# ----------------------------------------------------------------------


def _set(seed: int, value: float) -> dict:
    return {
        "context": {"workload": "w", "config": {}, "seed": seed,
                    "seconds": 1.0, "trace": False, "nproc": 2,
                    "python": "3", "numpy": "2", "engine": "packed"},
        "result": {"metrics": {"op_p50_ms": {"value": value, "unit": "ms"}}},
    }


def test_compare_refuses_sets_that_are_not_like_for_like():
    bounds = {"op_p50_ms": ("lower", 0.1)}
    with pytest.raises(results.ContextMismatch, match="seed"):
        results.compare(_set(1, 10.0), _set(2, 10.0), bounds)
    (row,) = results.compare(_set(1, 10.0), _set(1, 12.0), bounds)
    assert row["regressed"] and row["change"] == pytest.approx(0.2)
    (row,) = results.compare(_set(1, 10.0), _set(1, 10.5), bounds)
    assert not row["regressed"]


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(
        END_TO_END
    )
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(
        PER_LAYER_METRICS
    )
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_run_without_the_program_fails_without_a_result(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve-fleet",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
