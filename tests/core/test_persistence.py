"""Tests for model persistence (save/load trained detectors)."""

import numpy as np
import pytest

import repro.hdc.native as native_module
from repro.core.detector import LaelapsDetector
from repro.core.persistence import (
    detector_from_payload,
    detector_payload,
    load_model,
    save_model,
)
from repro.core.symbolizers import HVGSymbolizer
from repro.hdc.engine import (
    AUTO_ENGINE,
    PACKED_NATIVE_ENGINE,
    resolve_engine_name,
)


class TestRoundTrip:
    def test_bit_identical_predictions(
        self, fitted_detector, mini_recording, tmp_path
    ):
        fitted_detector.tr = 42.0
        path = save_model(fitted_detector, tmp_path / "model.npz")
        loaded = load_model(path)
        segment = mini_recording.data[: 256 * 40]
        original = fitted_detector.predict(segment)
        restored = loaded.predict(segment)
        np.testing.assert_array_equal(original.labels, restored.labels)
        np.testing.assert_array_equal(original.distances, restored.distances)

    def test_tr_and_shape_preserved(self, fitted_detector, tmp_path):
        fitted_detector.tr = 17.5
        loaded = load_model(save_model(fitted_detector, tmp_path / "m.npz"))
        assert loaded.tr == 17.5
        assert loaded.n_electrodes == fitted_detector.n_electrodes
        assert loaded.config == fitted_detector.config

    def test_alarms_identical(self, fitted_detector, mini_recording, tmp_path):
        loaded = load_model(save_model(fitted_detector, tmp_path / "m.npz"))
        a = fitted_detector.detect(mini_recording.data)
        b = loaded.detect(mini_recording.data)
        np.testing.assert_allclose(a.alarm_times, b.alarm_times)

    def test_suffixless_path_returns_real_file(
        self, fitted_detector, tmp_path
    ):
        # np.savez appends .npz when missing; the returned path must
        # name the file actually written.
        path = save_model(fitted_detector, tmp_path / "checkpoint")
        assert path.suffix == ".npz" and path.exists()
        assert load_model(path).tr == fitted_detector.tr

    def test_model_file_is_small(self, fitted_detector, tmp_path):
        # Only config + two prototypes: the on-disk model for d = 1 kbit
        # must stay in the low kilobytes (embedded-deployment claim).
        path = save_model(fitted_detector, tmp_path / "m.npz")
        assert path.stat().st_size < 16 * 1024

    def test_engine_tag_that_cannot_run_here_loads_on_auto(
        self, fitted_detector, mini_recording, tmp_path, monkeypatch
    ):
        # Written where packed-native runs (its pure-Python twins stand
        # in for numba), then loaded where it cannot.
        monkeypatch.setenv(native_module.NATIVE_PURE_PYTHON_ENV, "1")
        native = detector_from_payload({
            **detector_payload(fitted_detector),
            "engine": PACKED_NATIVE_ENGINE,
        })
        assert native.engine.name == PACKED_NATIVE_ENGINE
        path = save_model(native, tmp_path / "native.npz")
        monkeypatch.delenv(native_module.NATIVE_PURE_PYTHON_ENV)
        monkeypatch.setattr(
            native_module, "_NUMBA_IMPORT_ERROR", "No module named 'numba'"
        )
        loaded = load_model(path)
        assert loaded.engine.name == resolve_engine_name(AUTO_ENGINE)
        assert loaded.engine.name != PACKED_NATIVE_ENGINE
        segment = mini_recording.data[: 256 * 20]
        original = fitted_detector.predict(segment)
        restored = loaded.predict(segment)
        np.testing.assert_array_equal(original.labels, restored.labels)
        np.testing.assert_array_equal(original.distances, restored.distances)

    def test_hvg_symbolizer_round_trip(
        self, mini_recording, mini_segments, small_config, tmp_path
    ):
        det = LaelapsDetector(
            mini_recording.n_electrodes, small_config,
            symbolizer=HVGSymbolizer(degree_cap=5),
        )
        det.fit(mini_recording.data, mini_segments)
        loaded = load_model(save_model(det, tmp_path / "hvg.npz"))
        assert isinstance(loaded.symbolizer, HVGSymbolizer)
        assert loaded.symbolizer.degree_cap == 5


class TestErrors:
    def test_unfitted_detector_rejected(self, small_config, tmp_path):
        det = LaelapsDetector(4, small_config)
        with pytest.raises(ValueError):
            save_model(det, tmp_path / "m.npz")

    def test_version_check(self, fitted_detector, tmp_path):
        import json

        path = save_model(fitted_detector, tmp_path / "m.npz")
        with np.load(path) as archive:
            meta = json.loads(bytes(archive["meta"].tobytes()).decode())
            inter, ictal = archive["interictal"], archive["ictal"]
        meta["version"] = 99
        np.savez_compressed(
            tmp_path / "bad.npz",
            interictal=inter,
            ictal=ictal,
            meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
        )
        with pytest.raises(ValueError):
            load_model(tmp_path / "bad.npz")
