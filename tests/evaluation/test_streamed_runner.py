"""Streamed (out-of-core) evaluation: bit-exact with the in-memory path.

The contract under test: :func:`predict_windows_streamed` produces the
*same* labels, distances, deltas and decision times as a one-shot
``encode`` + ``predict_from_windows`` for every compute engine, every
chunk size (including chunks smaller than the LBP length and chunks
that straddle analysis windows), on in-RAM arrays and on memmap views
alike.  The chunk size is a memory knob, never a semantics knob.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.streaming as streaming_module
from repro.core.config import LaelapsConfig
from repro.core.detector import LaelapsDetector
from repro.core.training import TrainingSegments
from repro.data.outofcore import (
    CohortSpec,
    MemberSpec,
    default_member_plans,
    generate_cohort,
)
from repro.data.splits import split_patient
from repro.data.synthetic import SynthesisParams, SyntheticIEEGGenerator
from repro.evaluation.runner import (
    evaluate_detector,
    predict_windows_streamed,
    run_patient,
)

_FS = 256.0
_SEGMENTS = TrainingSegments(ictal=((60.0, 75.0),), interictal=(15.0, 45.0))


def _one_shot(detector, signal):
    """The unchunked reference: encode everything, classify once."""
    return detector.predict_from_windows(detector.encode(np.asarray(signal)))


def _engine_available(backend: str) -> bool:
    try:
        cfg = LaelapsConfig(dim=512, fs=_FS, backend=backend)
        det = LaelapsDetector(2, cfg)
        return det.backend is not None
    except RuntimeError:
        return False


@pytest.fixture(scope="module")
def fitted():
    """A fitted detector per engine plus the recording it was fit on."""
    recording = SyntheticIEEGGenerator(
        8, SynthesisParams(fs=_FS), seed=21
    ).generate(120.0, None)
    # Plant the training classes directly: an ictal-looking segment is
    # not needed for the equivalence property, only two prototypes.
    # "packed-fused" is the retired alias of packed and must score alike.
    detectors = {}
    for backend in ("unpacked", "packed", "packed-fused", "packed-native"):
        if not _engine_available(backend):
            continue
        det = LaelapsDetector(
            8, LaelapsConfig(dim=512, fs=_FS, backend=backend)
        )
        det.fit(recording.data, _SEGMENTS)
        detectors[backend] = det
    return recording, detectors


class TestBitExactness:
    @pytest.mark.parametrize(
        "backend", ("unpacked", "packed", "packed-fused", "packed-native")
    )
    @pytest.mark.parametrize("chunk_samples", (127, 333, 4096, 10**9))
    def test_every_engine_every_chunking(self, fitted, backend, chunk_samples):
        recording, detectors = fitted
        if backend not in detectors:
            pytest.skip(f"engine {backend} unavailable")
        detector = detectors[backend]
        signal = recording.data[: int(45.0 * _FS)]
        batch = _one_shot(detector, signal)
        streamed = predict_windows_streamed(detector, signal, chunk_samples)
        np.testing.assert_array_equal(streamed.labels, batch.labels)
        np.testing.assert_array_equal(streamed.distances, batch.distances)
        np.testing.assert_array_equal(streamed.deltas, batch.deltas)
        np.testing.assert_array_equal(streamed.times, batch.times)

    @settings(max_examples=20, deadline=None)
    @given(chunk_samples=st.integers(1, 700))
    def test_any_chunk_size(self, fitted, chunk_samples):
        """Adversarial chunkings, down to below the LBP length."""
        recording, detectors = fitted
        detector = next(iter(detectors.values()))
        signal = recording.data[:2000]
        batch = _one_shot(detector, signal)
        streamed = predict_windows_streamed(detector, signal, chunk_samples)
        np.testing.assert_array_equal(streamed.labels, batch.labels)
        np.testing.assert_array_equal(streamed.distances, batch.distances)
        np.testing.assert_array_equal(streamed.times, batch.times)

    def test_signal_shorter_than_one_window(self, fitted):
        _, detectors = fitted
        detector = next(iter(detectors.values()))
        preds = predict_windows_streamed(
            detector, np.zeros((10, 8), dtype=np.float32), 4
        )
        assert len(preds) == 0
        assert preds.times.shape == (0,)


class TestErrors:
    def test_non_streaming_detector_rejected(self):
        class Baseline:
            window_s = 1.0

        with pytest.raises(TypeError, match="streaming surface"):
            predict_windows_streamed(Baseline(), np.zeros((100, 4)))

    def test_bad_chunk_size(self, fitted):
        recording, detectors = fitted
        detector = next(iter(detectors.values()))
        with pytest.raises(ValueError, match="chunk_samples"):
            predict_windows_streamed(detector, recording.data, 0)

    def test_bad_signal_shape(self, fitted):
        _, detectors = fitted
        detector = next(iter(detectors.values()))
        with pytest.raises(ValueError, match="n_samples"):
            predict_windows_streamed(detector, np.zeros(100), 64)


class TestDriverIntegration:
    @pytest.fixture(scope="class")
    def patient(self, tmp_path_factory):
        spec = CohortSpec(
            "stream-unit",
            (MemberSpec("m0", 10, 300.0, default_member_plans(300.0, 3),
                        seed=11),),
            params=SynthesisParams(fs=_FS),
            seed=4,
        )
        root = tmp_path_factory.mktemp("cohort")
        return generate_cohort(spec, root).member("m0").patient()

    def _factory(self, n_electrodes, fs):
        return LaelapsDetector(
            n_electrodes, LaelapsConfig(dim=1_000, fs=fs, seed=2)
        )

    def test_run_patient_streamed_equals_in_memory(self, patient):
        built = []

        def factory(n_electrodes, fs):
            built.append(self._factory(n_electrodes, fs))
            return built[-1]

        run = run_patient(factory, patient)
        detector, recording = built[0], patient.recording
        train_end = split_patient(patient).train_span_s[1]
        spans = {
            "train_preds": recording.slice_time(0.0, train_end),
            "test_preds": recording.slice_time(
                train_end, recording.duration_s
            ),
        }
        for side, span in spans.items():
            streamed, mem = getattr(run, side), _one_shot(detector, span.data)
            np.testing.assert_array_equal(streamed.labels, mem.labels)
            np.testing.assert_array_equal(streamed.distances, mem.distances)
            np.testing.assert_array_equal(streamed.times, mem.times)

    def test_evaluate_detector_streamed_equals_in_memory(
        self, patient, monkeypatch
    ):
        recording = patient.recording
        detector = self._factory(patient.n_electrodes, recording.fs)
        first = recording.seizures[0]
        detector.fit(
            recording.data[: int(150.0 * recording.fs)],
            TrainingSegments(
                ictal=((first.onset_s, first.offset_s),),
                interictal=(10.0, 40.0),
            ),
        )
        streamed = evaluate_detector(detector, recording)
        # One chunk spanning an in-RAM copy of the whole recording.
        monkeypatch.setattr(streaming_module, "DEFAULT_CHUNK_SAMPLES", 10**9)
        in_memory = replace(recording, data=np.array(recording.data))
        assert evaluate_detector(detector, in_memory) == streamed
