"""Packed-vs-unpacked backend parity of the full detector pipeline.

The two backends of :class:`LaelapsDetector` must be bit-exact: same
labels, same Hamming distances, same confidence scores, same alarms —
on batch inference, streaming with arbitrary chunk sizes, and through
a persistence round-trip.
"""

import numpy as np
import pytest

from repro.core.config import LaelapsConfig
from repro.core.detector import LaelapsDetector
from repro.core.persistence import load_model, save_model
from repro.core.streaming import StreamingLaelaps
from repro.hdc.backend import pack_bits, packed_words, unpack_bits


@pytest.fixture(scope="module")
def packed_config(small_config) -> LaelapsConfig:
    return small_config.with_backend("packed")


@pytest.fixture(scope="module")
def fitted_packed_detector(
    mini_recording, mini_segments, packed_config
) -> LaelapsDetector:
    detector = LaelapsDetector(mini_recording.n_electrodes, packed_config)
    detector.fit(mini_recording.data, mini_segments)
    return detector


class TestBitExactness:
    def test_predictions_identical(
        self, fitted_detector, fitted_packed_detector, mini_recording
    ):
        unpacked = fitted_detector.predict(mini_recording.data)
        packed = fitted_packed_detector.predict(mini_recording.data)
        np.testing.assert_array_equal(unpacked.labels, packed.labels)
        np.testing.assert_array_equal(unpacked.distances, packed.distances)
        np.testing.assert_allclose(unpacked.deltas, packed.deltas)
        np.testing.assert_allclose(unpacked.times, packed.times)

    def test_detect_identical(
        self, fitted_detector, fitted_packed_detector, mini_recording
    ):
        unpacked = fitted_detector.detect(mini_recording.data)
        packed = fitted_packed_detector.detect(mini_recording.data)
        np.testing.assert_array_equal(unpacked.flags, packed.flags)
        np.testing.assert_allclose(unpacked.alarm_times, packed.alarm_times)

    def test_fit_reports_identical(
        self, fitted_detector, fitted_packed_detector
    ):
        assert fitted_detector.fit_report == fitted_packed_detector.fit_report

    def test_prototypes_identical(
        self, fitted_detector, fitted_packed_detector
    ):
        for label in (0, 1):
            np.testing.assert_array_equal(
                fitted_detector.memory.prototype(label),
                fitted_packed_detector.memory.prototype(label),
            )


class TestNativeWindowForms:
    def test_packed_encode_shape_and_dtype(
        self, fitted_packed_detector, mini_recording
    ):
        h = fitted_packed_detector.encode(mini_recording.data[: 256 * 20])
        assert h.dtype == np.uint64
        assert h.shape[1] == packed_words(fitted_packed_detector.config.dim)

    def test_predict_takes_packed_words_only(
        self, fitted_detector, fitted_packed_detector, mini_recording
    ):
        segment = mini_recording.data[: 256 * 20]
        h_reference = fitted_detector.encode(segment)
        h_packed = fitted_packed_detector.encode(segment)
        np.testing.assert_array_equal(h_reference, h_packed)
        # Cross-feeding: each detector classifies the other's windows
        # as its own, and neither takes unpacked bits.
        bits = unpack_bits(h_packed, fitted_detector.config.dim)
        for detector in (fitted_detector, fitted_packed_detector):
            own = detector.predict_from_windows(detector.encode(segment))
            other = detector.predict_from_windows(h_packed)
            np.testing.assert_array_equal(own.labels, other.labels)
            np.testing.assert_array_equal(own.distances, other.distances)
            with pytest.raises(ValueError, match="uint64"):
                detector.predict_from_windows(bits)

    def test_single_packed_window(self, fitted_packed_detector, mini_recording):
        h = fitted_packed_detector.encode(mini_recording.data[: 256 * 20])
        preds = fitted_packed_detector.predict_from_windows(h[0])
        assert len(preds) == 1

    def test_rejects_wrong_width(self, fitted_packed_detector):
        with pytest.raises(ValueError):
            fitted_packed_detector.predict_from_windows(
                np.zeros((3, 17), dtype=np.uint64)
            )

    def test_fit_from_packed_windows(self, small_config, rng):
        config = small_config.with_backend("packed")
        detector = LaelapsDetector(4, config)
        ictal = pack_bits(rng.integers(0, 2, config.dim, dtype=np.uint8))
        inter = pack_bits(rng.integers(0, 2, config.dim, dtype=np.uint8))
        detector.fit_from_windows(ictal, inter)
        assert detector.is_fitted
        # A prototype trained from one vector equals that vector.
        np.testing.assert_array_equal(
            pack_bits(detector.memory.prototype(1)), ictal
        )


class TestStreamingChunkBoundaries:
    """Arbitrary chunk sizes must reproduce one-shot detect, per backend."""

    @pytest.fixture(
        scope="class", params=[64, 150, 256, 333, 1000, 7000]
    )
    def chunk_size(self, request):
        return request.param

    @pytest.fixture(
        scope="class", params=["unpacked", "packed"]
    )
    def backend_detector(
        self, request, fitted_detector, fitted_packed_detector
    ):
        return (
            fitted_packed_detector
            if request.param == "packed"
            else fitted_detector
        )

    def test_stream_matches_one_shot_detect(
        self, backend_detector, mini_recording, chunk_size
    ):
        result = backend_detector.detect(mini_recording.data)
        streamer = StreamingLaelaps(backend_detector)
        events = streamer.run(mini_recording.data, chunk_size)
        assert len(events) == len(result.predictions)
        np.testing.assert_array_equal(
            [e.label for e in events], result.predictions.labels
        )
        np.testing.assert_allclose(
            [e.delta for e in events], result.predictions.deltas
        )
        np.testing.assert_allclose(
            [e.time_s for e in events if e.alarm], result.alarm_times
        )


class TestPersistence:
    def test_backend_round_trips(
        self, fitted_packed_detector, mini_recording, tmp_path
    ):
        path = save_model(fitted_packed_detector, tmp_path / "packed.npz")
        loaded = load_model(path)
        assert loaded.backend == "packed"
        assert loaded.config == fitted_packed_detector.config
        segment = mini_recording.data[: 256 * 40]
        original = fitted_packed_detector.predict(segment)
        restored = loaded.predict(segment)
        np.testing.assert_array_equal(original.labels, restored.labels)
        np.testing.assert_array_equal(original.distances, restored.distances)
