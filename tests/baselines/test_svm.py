"""Tests for repro.baselines.svm."""

import numpy as np
import pytest

from repro.baselines.svm import LbpSvmDetector, LinearSVM


def _blobs(rng, n=100, gap=2.0):
    x0 = rng.standard_normal((n, 5)) - gap
    x1 = rng.standard_normal((n, 5)) + gap
    x = np.concatenate([x0, x1])
    y = np.concatenate([np.zeros(n, dtype=int), np.ones(n, dtype=int)])
    return x, y


class TestLinearSVM:
    def test_separable_data_perfect_accuracy(self, rng):
        x, y = _blobs(rng)
        model = LinearSVM(epochs=30, seed=1).fit(x, y)
        assert (model.predict(x) == y).mean() == 1.0

    def test_margin_sign_tracks_class(self, rng):
        x, y = _blobs(rng)
        model = LinearSVM(epochs=30, seed=1).fit(x, y)
        scores = model.decision_function(x)
        assert scores[y == 1].min() > 0
        assert scores[y == 0].max() < 0

    def test_deterministic(self, rng):
        x, y = _blobs(rng)
        a = LinearSVM(epochs=10, seed=3).fit(x, y)
        b = LinearSVM(epochs=10, seed=3).fit(x, y)
        np.testing.assert_array_equal(a.weights, b.weights)

    def test_single_class_raises(self, rng):
        x = rng.standard_normal((10, 3))
        with pytest.raises(ValueError):
            LinearSVM().fit(x, np.zeros(10, dtype=int))

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            LinearSVM().decision_function(np.zeros((1, 3)))

    def test_regulariser_bounds_weights(self, rng):
        x, y = _blobs(rng, gap=5.0)
        weak = LinearSVM(lam=1e-4, epochs=20, seed=0).fit(x, y)
        strong = LinearSVM(lam=1.0, epochs=20, seed=0).fit(x, y)
        assert np.linalg.norm(strong.weights) < np.linalg.norm(weak.weights)

    def test_bad_params_raise(self):
        with pytest.raises(ValueError):
            LinearSVM(lam=0.0)
        with pytest.raises(ValueError):
            LinearSVM(epochs=0)


class TestLbpSvmDetector:
    def test_detects_unseen_seizure(self, mini_recording, mini_segments):
        det = LbpSvmDetector(mini_recording.n_electrodes, fs=256.0, seed=2)
        det.fit(mini_recording.data, mini_segments)
        result = det.detect(mini_recording.data)
        second = mini_recording.seizures[1]
        hits = (result.alarm_times >= second.onset_s) & (
            result.alarm_times <= second.offset_s + 5.0
        )
        assert hits.any()

    def test_predict_before_fit_raises(self):
        det = LbpSvmDetector(4, fs=256.0)
        with pytest.raises(RuntimeError):
            det.predict(np.zeros((1000, 4)))

    def test_wrong_channel_count_raises(self, mini_recording, mini_segments):
        det = LbpSvmDetector(mini_recording.n_electrodes, fs=256.0)
        det.fit(mini_recording.data, mini_segments)
        with pytest.raises(ValueError):
            det.predict(np.zeros((1000, 2)))

    def test_window_predictions_structure(self, mini_recording, mini_segments):
        det = LbpSvmDetector(mini_recording.n_electrodes, fs=256.0, seed=2)
        det.fit(mini_recording.data, mini_segments)
        preds = det.predict(mini_recording.data[: 256 * 20])
        assert preds.labels.shape == preds.deltas.shape == preds.times.shape
        assert set(np.unique(preds.labels)) <= {0, 1}
        assert np.all(preds.deltas >= 0)

    def test_windows_run_on_the_laelaps_clock(
        self, mini_recording, mini_segments, fitted_detector
    ):
        # Both label LBP-code windows, so both stamp a window at the raw
        # sample its last code needs: lbp_length samples past its end.
        config = fitted_detector.config
        det = LbpSvmDetector(
            mini_recording.n_electrodes, fs=config.fs,
            lbp_length=config.lbp_length, window_s=config.window_s,
            step_s=config.step_s, seed=2,
        )
        det.fit(mini_recording.data, mini_segments)
        signal = mini_recording.data[: int(config.fs) * 20]
        times = det.predict(signal).times
        np.testing.assert_array_equal(
            times, fitted_detector.predict(signal).times
        )
        assert times[0] == (
            config.window_s + config.lbp_length / config.fs
        )
