"""Per-patient evaluation driver.

``run_patient`` executes the expensive part once — training a detector
and classifying the train and test spans — and captures the raw
label/confidence streams in a :class:`PatientRun`.  Postprocessing
(t_c / t_r voting) is deferred to :func:`finalize_run`, so the t_r
ablation and the cohort-level alpha computation re-use the same
predictions instead of re-encoding hours of signal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Protocol

import numpy as np

from repro.core.detector import WindowPredictions
from repro.core.postprocess import PostprocessConfig, Postprocessor, tune_tr
from repro.core.streaming import DEFAULT_CHUNK_SAMPLES, predict_chunked
from repro.core.training import TrainingSegments, windows_in_segments
from repro.data.model import Patient, Recording, SeizureEvent
from repro.data.splits import ChronologicalSplit, split_patient
from repro.evaluation.metrics import DetectionMetrics, compute_metrics


class SupportsDetection(Protocol):
    """Minimal interface every detector (Laelaps and baselines) offers."""

    window_s: float

    def fit(self, signal: np.ndarray, segments: TrainingSegments) -> Any:
        """Train from a recording and explicit training segments."""

    def predict(self, signal: np.ndarray) -> WindowPredictions:
        """Per-window labels, confidence scores and decision times."""


#: Factory building a fresh detector for a patient:
#: ``factory(n_electrodes, fs) -> detector``.
DetectorFactory = Callable[[int, float], SupportsDetection]


def predict_windows(
    detector: SupportsDetection, signal: np.ndarray
) -> WindowPredictions:
    """Score a whole recording through the detector's own ``predict``.

    Laelaps detectors run the chunked inference loop
    (:func:`repro.core.streaming.predict_chunked`), so memmap-backed
    recordings are scored in O(chunk) memory; baselines run their own
    ``predict``.  Kept as the evaluation driver's single entry point so
    every method is scored through the same call.
    """
    return detector.predict(signal)


def predict_windows_streamed(
    detector: Any,
    signal: np.ndarray,
    chunk_samples: int = DEFAULT_CHUNK_SAMPLES,
) -> WindowPredictions:
    """Score a recording in chunks of a chosen size, bit-exact with ``predict``.

    :func:`predict_windows` with the chunk size exposed: the same loop
    (:func:`repro.core.streaming.predict_chunked`), for callers that
    size chunks to their memory budget.

    Args:
        detector: A *fitted* Laelaps-style detector with the streaming
            surface (``symbolizer`` with LBP margin semantics,
            ``temporal_encoder``, ``classify_from_windows``,
            ``window_times``).  Baselines without it must use
            :func:`predict_windows`.
        signal: Recording ``(n_samples, n_electrodes)``; memmap views
            welcome.
        chunk_samples: Raw samples per chunk (memory/speed knob; the
            predictions are identical for every value).

    Raises:
        TypeError: If the detector lacks the streaming surface.
        ValueError: On a bad chunk size or signal shape.
    """
    from repro.core.symbolizers import LBPSymbolizer

    symbolizer = getattr(detector, "symbolizer", None)
    if not isinstance(symbolizer, LBPSymbolizer) or not hasattr(
        detector, "classify_from_windows"
    ):
        raise TypeError(
            "streamed prediction needs an LBP-symbolised detector with "
            "the streaming surface (temporal_encoder / "
            "classify_from_windows); got "
            f"{type(detector).__name__}"
        )
    return predict_chunked(detector, signal, chunk_samples)


@dataclass
class PatientRun:
    """Raw predictions of one detector on one patient.

    Attributes:
        patient_id: Cohort identifier.
        method: Method name (``"laelaps"``, ``"svm"``, ...).
        n_electrodes: Electrode count of the patient.
        train_preds: Predictions over the training span.
        train_truth: Ground-truth ictal mask aligned with ``train_preds``
            (True where the window overlaps a seizure).
        test_preds: Predictions over the test span (times relative to the
            start of the test span).
        test_seizures: Seizures inside the test span, re-based.
        test_duration_s: Length of the test span.
        trained_delta_mean: Mean delta of the windows used to build the
            prototypes (nan for methods without a fit report).
        heldout_delta_mean: Mean delta of training-span ictal windows
            *not* used to build the prototypes (nan when none exist).
    """

    patient_id: str
    method: str
    n_electrodes: int
    train_preds: WindowPredictions
    train_truth: np.ndarray
    test_preds: WindowPredictions
    test_seizures: tuple[SeizureEvent, ...]
    test_duration_s: float
    trained_delta_mean: float = float("nan")
    heldout_delta_mean: float = float("nan")


@dataclass(frozen=True)
class PatientResult:
    """Final per-patient scores after postprocessing.

    Attributes:
        patient_id: Cohort identifier.
        method: Method name.
        metrics: Detection metrics on the test span.
        tr: The t_r threshold used.
        alarm_times: Alarm times (s, relative to the test span).
    """

    patient_id: str
    method: str
    metrics: DetectionMetrics
    tr: float
    alarm_times: np.ndarray


def run_patient(
    factory: DetectorFactory,
    patient: Patient,
    split: ChronologicalSplit | None = None,
    method: str = "detector",
    **split_kwargs: float,
) -> PatientRun:
    """Train a detector on a patient and capture raw predictions.

    Args:
        factory: Builds the detector given ``(n_electrodes, fs)``.
        patient: The patient (recording + training-seizure count).
        split: Pre-computed chronological split; derived from the patient
            when omitted.
        method: Name recorded in the run.
        **split_kwargs: Forwarded to
            :func:`repro.data.splits.split_patient` when ``split`` is None.
    """
    recording = patient.recording
    if split is None:
        split = split_patient(patient, **split_kwargs)
    train_end = split.train_span_s[1]
    train_rec = recording.slice_time(0.0, train_end)
    test_rec = recording.slice_time(train_end, recording.duration_s)

    detector = factory(patient.n_electrodes, recording.fs)
    # Training slices only the short prototype segments and scoring is
    # chunked, so memmap-backed spans are never materialised.
    detector.fit(train_rec.data, split.training_segments)
    train_preds = predict_windows(detector, train_rec.data)
    test_preds = predict_windows(detector, test_rec.data)

    window_s = detector.window_s
    # A window with decision time t spans [t - window_s, t]; it overlaps a
    # seizure [on, off] iff on <= t <= off + window_s.
    train_truth = windows_in_segments(
        train_preds.times,
        [(s.onset_s, s.offset_s + window_s) for s in train_rec.seizures],
        window_s=0.0,
    )
    # Delta statistics for the alpha term of the t_r rule.
    trained_mean = float("nan")
    report = getattr(detector, "fit_report", None)
    if report is not None:
        trained_mean = report.mean_trained_ictal_delta
    trained_mask = windows_in_segments(
        train_preds.times, list(split.training_segments.ictal), window_s
    )
    ictal_mask = windows_in_segments(
        train_preds.times, train_rec.seizure_segments(), window_s
    )
    heldout = ictal_mask & ~trained_mask
    heldout_mean = (
        float(np.mean(train_preds.deltas[heldout]))
        if np.any(heldout)
        else float("nan")
    )
    return PatientRun(
        patient_id=patient.patient_id,
        method=method,
        n_electrodes=patient.n_electrodes,
        train_preds=train_preds,
        train_truth=train_truth,
        test_preds=test_preds,
        test_seizures=test_rec.seizures,
        test_duration_s=test_rec.duration_s,
        trained_delta_mean=trained_mean,
        heldout_delta_mean=heldout_mean,
    )


def tune_run_tr(run: PatientRun, alpha: float = 0.0,
                postprocess_len: int = 10, tc: int = 10) -> float:
    """Tune t_r from a run's training-span predictions (Sec. III-C)."""
    return tune_tr(
        run.train_preds.labels,
        run.train_preds.deltas,
        run.train_truth,
        alpha=alpha,
        postprocess_len=postprocess_len,
        tc=tc,
    )


def finalize_run(
    run: PatientRun,
    tr: float = 0.0,
    postprocess_len: int = 10,
    tc: int = 10,
    grace_s: float = 5.0,
    refractory_s: float = 30.0,
) -> PatientResult:
    """Apply postprocessing at a given t_r and score the test span.

    Runs the same shared state machine as ``detect()`` and the stream
    engines (so the warm-up contract applies: no alarm before window
    ``postprocess_len - 1``).
    """
    preds = run.test_preds
    post = Postprocessor(
        PostprocessConfig(postprocess_len=postprocess_len, tc=tc, tr=tr)
    )
    onsets = post.onsets(preds.labels, preds.deltas)
    alarm_times = preds.times[onsets] if len(preds) else np.zeros(0)
    metrics = compute_metrics(
        alarm_times,
        run.test_seizures,
        run.test_duration_s,
        grace_s=grace_s,
        refractory_s=refractory_s,
    )
    return PatientResult(
        patient_id=run.patient_id,
        method=run.method,
        metrics=metrics,
        tr=tr,
        alarm_times=alarm_times,
    )


def evaluate_detector(
    detector: Any,
    recording: Recording,
    tr: float | None = None,
    postprocess_len: int = 10,
    tc: int = 10,
) -> DetectionMetrics:
    """Score a *fitted* detector on an annotated recording.

    Convenience wrapper used by the examples: predicts, postprocesses at
    the detector's (or an explicit) t_r, and computes metrics against the
    recording's own annotations.
    """
    preds = predict_windows(detector, recording.data)
    threshold = tr if tr is not None else float(getattr(detector, "tr", 0.0))
    post = Postprocessor(
        PostprocessConfig(postprocess_len=postprocess_len, tc=tc, tr=threshold)
    )
    onsets = post.onsets(preds.labels, preds.deltas)
    alarm_times = preds.times[onsets] if len(preds) else np.zeros(0)
    return compute_metrics(
        alarm_times, recording.seizures, recording.duration_s
    )
