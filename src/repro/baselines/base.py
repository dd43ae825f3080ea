"""Shared scaffolding for the baseline detectors.

``WindowedDetector`` owns the protocol plumbing every baseline shares —
slicing training segments, extracting window features, standardising
them, and producing :class:`~repro.core.detector.WindowPredictions` whose
``deltas`` carry the classifier's score magnitude (so the same t_c / t_r
postprocessor applies; the baselines run at t_r = 0 as in the paper).
"""

from __future__ import annotations

import numpy as np

from repro.core.detector import (
    DetectionResult,
    WindowPredictions,
    detection_result,
)
from repro.core.training import TrainingSegments, segment_slice


class FeatureScaler:
    """Per-feature standardisation fitted on the training windows."""

    def __init__(self) -> None:
        self.mean: np.ndarray | None = None
        self.std: np.ndarray | None = None

    def fit(self, features: np.ndarray) -> "FeatureScaler":
        """Record mean/std along axis 0 (constant features get std 1)."""
        self.mean = features.mean(axis=0)
        std = features.std(axis=0)
        self.std = np.where(std > 1e-12, std, 1.0)
        return self

    def transform(self, features: np.ndarray) -> np.ndarray:
        """Standardise; requires a prior :meth:`fit`."""
        if self.mean is None or self.std is None:
            raise RuntimeError("scaler not fitted")
        return (features - self.mean) / self.std


class WindowedDetector:
    """Base class: fit on segments, score every window of a recording.

    Subclasses implement:

    * ``_features(signal)`` — window features, shape ``(n_windows, ...)``;
    * ``_train(features, labels)`` — fit the classifier;
    * ``_scores(features)`` — real-valued scores, positive = ictal.

    Args:
        n_electrodes: Electrode count of the patient.
        fs: Sampling rate of the recordings.
        window_s: Analysis-window length (1 s, as Laelaps).
        step_s: Window hop (0.5 s).
        seed: Seed forwarded to the subclass model.
    """

    #: Minimum raw-sample margin appended to training segments so their
    #: trailing windows exist (LBP-based features consume a few samples).
    _segment_margin = 8

    def __init__(
        self,
        n_electrodes: int,
        fs: float,
        window_s: float = 1.0,
        step_s: float = 0.5,
        seed: int = 0,
    ) -> None:
        if n_electrodes < 1:
            raise ValueError(f"n_electrodes must be >= 1, got {n_electrodes}")
        self.n_electrodes = n_electrodes
        self.fs = fs
        self.window_s = window_s
        self.step_s = step_s
        self.seed = seed
        self.tr = 0.0
        self.scaler = FeatureScaler()
        self._fitted = False
        self.fit_report = None

    # -- subclass hooks --------------------------------------------------

    def _features(self, signal: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _train(self, features: np.ndarray, labels: np.ndarray) -> None:
        raise NotImplementedError

    def _scores(self, features: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    # -- shared plumbing --------------------------------------------------

    def _validate(self, signal: np.ndarray) -> np.ndarray:
        arr = np.asarray(signal)
        if arr.ndim != 2 or arr.shape[1] != self.n_electrodes:
            raise ValueError(
                f"expected (n_samples, {self.n_electrodes}), got {arr.shape}"
            )
        return arr

    def _flat(self, features: np.ndarray) -> np.ndarray:
        return features.reshape(features.shape[0], -1)

    def fit(
        self, signal: np.ndarray, segments: TrainingSegments
    ) -> "WindowedDetector":
        """Train on the paper's protocol segments."""
        arr = self._validate(signal)
        margin = self._segment_margin
        chunks: list[np.ndarray] = []
        labels: list[np.ndarray] = []
        for segment in segments.ictal:
            sl = segment_slice(segment, self.fs, arr.shape[0], margin)
            feats = self._features(arr[sl])
            if feats.shape[0] == 0:
                raise ValueError(f"ictal segment {segment} yields no window")
            chunks.append(feats)
            labels.append(np.ones(feats.shape[0], dtype=np.int64))
        sl = segment_slice(segments.interictal, self.fs, arr.shape[0], margin)
        feats = self._features(arr[sl])
        if feats.shape[0] == 0:
            raise ValueError("interictal segment yields no window")
        chunks.append(feats)
        labels.append(np.zeros(feats.shape[0], dtype=np.int64))

        features = np.concatenate(chunks, axis=0)
        y = np.concatenate(labels)
        flat = self._flat(features)
        self.scaler.fit(flat)
        scaled = self.scaler.transform(flat).reshape(features.shape)
        self._train(scaled, y)
        self._fitted = True
        return self

    def predict(self, signal: np.ndarray) -> WindowPredictions:
        """Score every window; scores become labels and delta values."""
        if not self._fitted:
            raise RuntimeError("detector must be fitted before predicting")
        arr = self._validate(signal)
        features = self._features(arr)
        n_win = features.shape[0]
        if n_win == 0:
            empty = np.zeros(0)
            return WindowPredictions(
                labels=empty.astype(np.int64),
                distances=np.zeros((0, 2), dtype=np.int64),
                deltas=empty,
                times=empty,
            )
        flat = self.scaler.transform(self._flat(features))
        scores = self._scores(flat.reshape(features.shape))
        labels = (scores > 0).astype(np.int64)
        step = self.step_s
        times = (np.arange(n_win) * step) + self.window_s
        return WindowPredictions(
            labels=labels,
            distances=np.zeros((n_win, 2), dtype=np.int64),
            deltas=np.abs(scores).astype(np.float64),
            times=times,
        )

    def detect(self, signal: np.ndarray) -> DetectionResult:
        """Alarms under the shared postprocessor (t_r = 0 by default)."""
        return detection_result(self.predict(signal), 10, 10, self.tr)
