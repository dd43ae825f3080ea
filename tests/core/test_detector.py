"""Tests for repro.core.detector (the end-to-end Laelaps pipeline)."""

import os
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import ICTAL, INTERICTAL, LaelapsConfig
from repro.core.detector import LaelapsDetector
from repro.core.training import TrainingSegments, segment_slice
from repro.data.synthetic import (
    SeizurePlan,
    SynthesisParams,
    SyntheticIEEGGenerator,
)
from repro.hdc.backend import hamming_distance, pack_bits, packed_words
from repro.hdc.engine import engine_names
from repro.hdc.native import NATIVE_PURE_PYTHON_ENV

#: Lets ``packed-native`` run on its pure-Python kernel twins when
#: numba is absent (and changes nothing when it is installed).
_PURE_PYTHON_OK = {NATIVE_PURE_PYTHON_ENV: "1"}

#: Two ictal segments and one interictal segment of ``tiny_recording``.
TINY_SEGMENTS = TrainingSegments(
    ictal=((20.0, 25.0), (25.0, 30.0)), interictal=(0.0, 10.0)
)


@pytest.fixture(scope="module")
def tiny_recording():
    """40 s, 3-electrode recording: small enough for the native twins."""
    return SyntheticIEEGGenerator(
        3, SynthesisParams(fs=256.0), seed=5
    ).generate(40.0, [SeizurePlan(20.0, 10.0)])


class TestConstruction:
    def test_deterministic_item_memories(self, small_config):
        a = LaelapsDetector(8, small_config)
        b = LaelapsDetector(8, small_config)
        np.testing.assert_array_equal(
            a.code_memory.vectors, b.code_memory.vectors
        )
        np.testing.assert_array_equal(
            a.electrode_memory.vectors, b.electrode_memory.vectors
        )

    def test_rejects_zero_electrodes(self, small_config):
        with pytest.raises(ValueError):
            LaelapsDetector(0, small_config)

    def test_memory_footprint(self, small_config):
        det = LaelapsDetector(10, small_config)
        expected = (64 + 10) * 1_000 + 2 * 1_000
        assert det.memory_footprint_bits() == expected

    def test_window_s_property(self, small_config):
        assert LaelapsDetector(4, small_config).window_s == 1.0


class TestEncoding:
    def test_encode_shape(self, fitted_detector, mini_recording):
        h = fitted_detector.encode(mini_recording.data[: 256 * 10])
        assert h.shape[1] == packed_words(fitted_detector.config.dim)
        assert h.dtype == np.uint64

    def test_encode_rejects_wrong_channels(self, fitted_detector):
        with pytest.raises(ValueError):
            fitted_detector.encode(np.zeros((1000, 3)))

    def test_window_times_monotone(self, fitted_detector):
        times = fitted_detector.window_times(20)
        assert np.all(np.diff(times) == pytest.approx(0.5))


class TestFit:
    def test_fit_populates_memory_and_report(self, fitted_detector):
        assert fitted_detector.is_fitted
        report = fitted_detector.fit_report
        assert report is not None
        assert report.n_ictal_windows > 0
        assert report.n_interictal_windows > 0
        assert report.prototype_distance > 0

    def test_prototypes_separated_on_synthetic_data(self, fitted_detector):
        # The ictal and interictal prototypes must be far apart relative
        # to d (the learnability the paper relies on).
        assert fitted_detector.fit_report.prototype_distance > 0.1 * 1_000

    def test_fit_from_windows_single_vectors(self, small_config, rng):
        det = LaelapsDetector(4, small_config)
        ictal = rng.integers(0, 2, 1_000, dtype=np.uint8)
        inter = rng.integers(0, 2, 1_000, dtype=np.uint8)
        det.fit_from_windows(pack_bits(ictal), pack_bits(inter))
        np.testing.assert_array_equal(det.memory.prototype(ICTAL), ictal)
        np.testing.assert_array_equal(det.memory.prototype(INTERICTAL), inter)

    def test_fit_rejects_too_short_segment(self, mini_recording, small_config):
        det = LaelapsDetector(mini_recording.n_electrodes, small_config)
        segments = TrainingSegments(
            ictal=((100.0, 100.5),), interictal=(40.0, 70.0)
        )
        with pytest.raises(ValueError):
            det.fit(mini_recording.data, segments)


class TestSinglePath:
    """Training and queries reach the associative memory one way."""

    def test_fit_encodes_each_segment_once(self, tiny_recording,
                                           monkeypatch):
        det = LaelapsDetector(3, LaelapsConfig(dim=256, fs=256.0))
        encode = det.encode
        calls = []

        def spy(signal):
            calls.append(signal.shape)
            return encode(signal)

        monkeypatch.setattr(det, "encode", spy)
        det.fit(tiny_recording.data, TINY_SEGMENTS)
        assert len(calls) == len(TINY_SEGMENTS.ictal) + 1

    @pytest.mark.parametrize("backend", engine_names())
    def test_fit_equals_fit_from_windows(self, tiny_recording, backend):
        config = LaelapsConfig(dim=129, fs=256.0, seed=3, backend=backend)
        data = tiny_recording.data
        with mock.patch.dict(os.environ, _PURE_PYTHON_OK):
            fitted = LaelapsDetector(3, config).fit(data, TINY_SEGMENTS)
            ref = LaelapsDetector(3, config)

            def windows(segment):
                sl = segment_slice(
                    segment, config.fs, data.shape[0], ref.symbolizer.margin
                )
                return ref.encode(data[sl])

            ref.fit_from_windows(
                np.concatenate([windows(s) for s in TINY_SEGMENTS.ictal]),
                windows(TINY_SEGMENTS.interictal),
            )
        assert fitted.memory.labels == ref.memory.labels == [
            INTERICTAL, ICTAL,
        ]
        for label in (INTERICTAL, ICTAL):
            np.testing.assert_array_equal(
                fitted.memory.prototype(label), ref.memory.prototype(label)
            )
        assert fitted.fit_report == ref.fit_report

    @settings(max_examples=30, deadline=None)
    @given(
        backend=st.sampled_from(engine_names()),
        dim=st.integers(2, 200),
        n=st.integers(0, 6),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_predict_from_windows_matches_brute_force(
        self, backend, dim, n, seed
    ):
        rng = np.random.default_rng(seed)
        inter, ictal = rng.integers(0, 2, (2, dim), dtype=np.uint8)
        queries = rng.integers(0, 2, (n, dim), dtype=np.uint8)
        # Force a tie on every other row: agree with each prototype on
        # half of the positions where they differ.
        differ = np.flatnonzero(inter != ictal)
        half = len(differ) // 2
        for row in queries[::2]:
            row[differ[:half]] = inter[differ[:half]]
            row[differ[half : 2 * half]] = ictal[differ[half : 2 * half]]
            row[differ[2 * half :]] = 0
        with mock.patch.dict(os.environ, _PURE_PYTHON_OK):
            det = LaelapsDetector(
                2, LaelapsConfig(dim=dim, fs=256.0, backend=backend)
            )
            det.fit_from_windows(pack_bits(ictal[None]), pack_bits(inter[None]))
            preds = det.predict_from_windows(pack_bits(queries))
        labels, distances, deltas = preds.labels, preds.distances, preds.deltas
        expected = hamming_distance(
            queries[:, None, :], np.stack([inter, ictal])
        )
        np.testing.assert_array_equal(distances, expected)
        np.testing.assert_array_equal(
            labels, np.array([INTERICTAL, ICTAL])[np.argmin(expected, -1)]
        )
        np.testing.assert_array_equal(
            deltas, np.abs(expected[:, 0] - expected[:, 1])
        )

    def test_empty_batch_of_wrong_width_raises(self, fitted_detector):
        with pytest.raises(ValueError, match="uint64"):
            fitted_detector.predict_from_windows(np.zeros((0, 7)))


class TestPredictAndDetect:
    def test_predict_before_fit_raises(self, small_config):
        det = LaelapsDetector(4, small_config)
        with pytest.raises(RuntimeError):
            det.predict(np.zeros((1000, 4)))

    def test_prediction_shapes_align(self, fitted_detector, mini_recording):
        preds = fitted_detector.predict(mini_recording.data)
        n = len(preds)
        assert preds.labels.shape == (n,)
        assert preds.distances.shape == (n, 2)
        assert preds.deltas.shape == (n,)
        assert preds.times.shape == (n,)

    def test_detects_unseen_seizure(self, fitted_detector, mini_recording):
        result = fitted_detector.detect(mini_recording.data)
        second = mini_recording.seizures[1]
        hits = (result.alarm_times >= second.onset_s) & (
            result.alarm_times <= second.offset_s + 5.0
        )
        assert hits.any(), f"no alarm in {second}, alarms={result.alarm_times}"

    def test_no_alarms_in_clean_interictal(self, fitted_detector, mini_recording):
        preds = fitted_detector.predict(mini_recording.data)
        # Between the two seizures (margin for postprocessing windows).
        inter = (preds.times > 140) & (preds.times < 210)
        assert preds.labels[inter].mean() < 0.2

    def test_interictal_labels_interictal(self, fitted_detector, mini_recording):
        preds = fitted_detector.predict(mini_recording.data)
        early = preds.times < 90
        assert (preds.labels[early] == INTERICTAL).mean() > 0.9

    def test_deltas_match_distance_gap(self, fitted_detector, mini_recording):
        preds = fitted_detector.predict(mini_recording.data[: 256 * 30])
        np.testing.assert_allclose(
            preds.deltas,
            np.abs(preds.distances[:, 0] - preds.distances[:, 1]),
        )

    def test_empty_prediction(self, fitted_detector):
        preds = fitted_detector.predict_from_windows(np.zeros(
            (0, packed_words(fitted_detector.config.dim)), dtype=np.uint64
        ))
        assert len(preds) == 0


class TestTrTuning:
    def test_tune_tr_returns_and_stores(self, fitted_detector, mini_recording):
        train = mini_recording.data[: int(135 * 256)]
        tr = fitted_detector.tune_tr(train, [(100.0, 125.0)])
        assert tr > 0
        assert fitted_detector.tr == tr

    def test_detection_survives_tuned_tr(self, mini_recording, mini_segments, small_config):
        det = LaelapsDetector(mini_recording.n_electrodes, small_config)
        det.fit(mini_recording.data, mini_segments)
        det.tune_tr(mini_recording.data[: int(135 * 256)], [(100.0, 125.0)])
        result = det.detect(mini_recording.data)
        second = mini_recording.seizures[1]
        hits = (result.alarm_times >= second.onset_s) & (
            result.alarm_times <= second.offset_s + 5.0
        )
        assert hits.any()


class TestDimensionBehaviour:
    def test_larger_dim_also_detects(self, mini_recording, mini_segments):
        config = LaelapsConfig(dim=4_000, fs=256.0, seed=7)
        det = LaelapsDetector(mini_recording.n_electrodes, config)
        det.fit(mini_recording.data, mini_segments)
        result = det.detect(mini_recording.data)
        second = mini_recording.seizures[1]
        hits = (result.alarm_times >= second.onset_s) & (
            result.alarm_times <= second.offset_s + 5.0
        )
        assert hits.any()
