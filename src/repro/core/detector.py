"""The Laelaps detector: end-to-end pipeline of Fig. 1.

``LaelapsDetector`` owns the two item memories, a named compute engine
(:mod:`repro.hdc.engine` — the single dispatch point for the encoder and
associative-memory representations), the two-prototype associative
memory and the postprocessor.  It is trained from explicit time segments
(one or two seizures plus 30 s of interictal signal) and then classifies
arbitrarily long recordings at the 0.5 s label rate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.config import ICTAL, INTERICTAL, LaelapsConfig
from repro.core.postprocess import (
    PostprocessConfig,
    Postprocessor,
    delta_scores,
    flags_to_onsets,
    tune_tr,
)
from repro.core.training import (
    FitReport,
    TrainingSegments,
    segment_slice,
    window_decision_times,
    windows_in_segments,
)
from repro.hdc.associative import AssociativeMemory
from repro.hdc.backend import hamming_distance
from repro.hdc.engine import build_engine
from repro.hdc.item_memory import ItemMemory
from repro.hdc.temporal import WindowBundler


@dataclass(frozen=True)
class WindowPredictions:
    """Per-window classifier output of a recording.

    Attributes:
        labels: int64 array ``(n_windows,)`` of INTERICTAL/ICTAL labels.
        distances: int64 array ``(n_windows, 2)``, Hamming distances to
            the interictal (column 0) and ictal (column 1) prototypes.
        deltas: float64 array of confidence scores |d0 - d1|.
        times: float64 array of decision times in seconds.
    """

    labels: np.ndarray
    distances: np.ndarray
    deltas: np.ndarray
    times: np.ndarray

    def __len__(self) -> int:
        return len(self.labels)


@dataclass(frozen=True)
class DetectionResult:
    """Alarms produced on a recording.

    Attributes:
        alarm_times: Seconds at which the alarm condition newly fired.
        flags: Per-window boolean alarm condition.
        predictions: The underlying per-window classifier output.
    """

    alarm_times: np.ndarray
    flags: np.ndarray
    predictions: WindowPredictions


class LaelapsDetector:
    """Patient-specific seizure detector (LBP + HD computing).

    Args:
        n_electrodes: Number of iEEG electrodes of the patient (24-128 in
            the paper's cohort).
        config: Pipeline configuration; defaults to the paper's settings
            with the 10 kbit golden-model dimension.
        symbolizer: Symbol extractor; defaults to the paper's LBP codes
            at ``config.lbp_length``.  See
            :mod:`repro.core.symbolizers` for the HVG comparator.

    The detector is deterministic given ``(n_electrodes, config)``: item
    memories derive their seeds from ``config.seed``.
    """

    def __init__(
        self,
        n_electrodes: int,
        config: LaelapsConfig | None = None,
        symbolizer=None,
    ) -> None:
        if n_electrodes < 1:
            raise ValueError(f"n_electrodes must be >= 1, got {n_electrodes}")
        self.config = config or LaelapsConfig()
        cfg = self.config
        self.n_electrodes = n_electrodes
        if symbolizer is None:
            from repro.core.symbolizers import LBPSymbolizer

            symbolizer = LBPSymbolizer(cfg.lbp_length)
        self.symbolizer = symbolizer
        self.code_memory = ItemMemory(
            symbolizer.alphabet_size, cfg.dim, cfg.code_memory_seed
        )
        self.electrode_memory = ItemMemory(
            n_electrodes, cfg.dim, cfg.electrode_memory_seed
        )
        #: The compute engine running every encode/train/classify path.
        #: ``config.backend`` may name it indirectly (``auto``);
        #: :attr:`backend` always holds the resolved engine name.
        self.engine = build_engine(
            cfg.backend, self.code_memory, self.electrode_memory,
            cfg.window_spec,
        )
        self.backend = self.engine.name
        self.spatial = self.engine.spatial
        self.memory = AssociativeMemory(cfg.dim)
        self.tr = cfg.tr
        self.fit_report: FitReport | None = None

    @property
    def window_s(self) -> float:
        """Analysis-window length in seconds (detector interface)."""
        return self.config.window_s

    # ------------------------------------------------------------------
    # Encoding
    # ------------------------------------------------------------------

    def _validate_signal(self, signal: np.ndarray) -> np.ndarray:
        arr = np.asarray(signal)
        if arr.ndim != 2 or arr.shape[1] != self.n_electrodes:
            raise ValueError(
                f"expected (n_samples, {self.n_electrodes}) signal, "
                f"got shape {arr.shape}"
            )
        return arr

    def temporal_encoder(self) -> WindowBundler:
        """A fresh streaming window encoder in the engine's domain."""
        return self.engine.temporal_encoder()

    def encode(self, signal: np.ndarray) -> np.ndarray:
        """Encode a recording into engine-native H vectors.

        The output shape and dtype are the engine's native window form
        (see ``repro backends``); every form is accepted by
        :meth:`predict_from_windows`, whichever engine produced it.
        """
        arr = self._validate_signal(signal)
        codes = self.symbolizer.codes(arr)
        return self.temporal_encoder().encode_all(codes)

    def window_times(self, n_windows: int) -> np.ndarray:
        """Decision times (s) for ``n_windows`` windows of a recording."""
        return window_decision_times(
            n_windows,
            self.config.window_spec,
            self.config.fs,
            self.symbolizer.margin,
        )

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------

    @property
    def is_fitted(self) -> bool:
        """Whether both prototypes have been stored."""
        return self.memory.n_classes == 2

    def fit_from_windows(
        self, ictal_h: np.ndarray, interictal_h: np.ndarray
    ) -> "LaelapsDetector":
        """Train the associative memory from already-encoded H vectors.

        Accepts windows in any engine's window form (unpacked uint8
        ``(k, d)`` or word-packed uint64 ``(k, words)``), matching
        whatever :meth:`encode` produced.  The interictal prototype is
        stored first, so a query equidistant from both prototypes is
        labelled interictal.
        """
        ictal_arr = self.engine.windows_2d(ictal_h)
        inter_arr = self.engine.windows_2d(interictal_h)
        if ictal_arr.shape[0] == 0 or inter_arr.shape[0] == 0:
            raise ValueError("both classes need at least one H vector")
        self.engine.train(self.memory, INTERICTAL, inter_arr)
        self.engine.train(self.memory, ICTAL, ictal_arr)
        _, distances = self.engine.classify_windows(self.memory, ictal_arr)
        self.fit_report = FitReport(
            n_ictal_windows=ictal_arr.shape[0],
            n_interictal_windows=inter_arr.shape[0],
            prototype_distance=int(
                hamming_distance(
                    self.memory.prototype(INTERICTAL),
                    self.memory.prototype(ICTAL),
                )
            ),
            mean_trained_ictal_delta=float(
                np.mean(delta_scores(distances))
            ),
        )
        return self

    def fit(
        self, signal: np.ndarray, segments: TrainingSegments
    ) -> "LaelapsDetector":
        """Train from a recording and explicit training segments.

        Each segment is sliced out of the signal (with the LBP margin so
        its trailing codes exist) and encoded once, independently; every
        H window of an ictal segment feeds the ictal prototype, and
        likewise for the interictal segment, through
        :meth:`fit_from_windows`.

        Args:
            signal: Recording ``(n_samples, n_electrodes)``.
            segments: Ictal segment(s) (10-30 s each) and one ~30 s
                interictal segment.
        """
        arr = self._validate_signal(signal)

        def encode_segment(segment: tuple[float, float]) -> np.ndarray:
            sl = segment_slice(
                segment, self.config.fs, arr.shape[0], self.symbolizer.margin
            )
            return self.encode(arr[sl])

        ictal_h = []
        for segment in segments.ictal:
            h = encode_segment(segment)
            if h.shape[0] == 0:
                raise ValueError(
                    f"ictal segment {segment} too short for one analysis window"
                )
            ictal_h.append(h)
        inter_h = encode_segment(segments.interictal)
        if inter_h.shape[0] == 0:
            raise ValueError("interictal segment too short for one window")
        return self.fit_from_windows(np.concatenate(ictal_h), inter_h)

    # ------------------------------------------------------------------
    # Inference
    # ------------------------------------------------------------------

    def predict(self, signal: np.ndarray) -> WindowPredictions:
        """Classify every analysis window of a recording.

        LBP-symbolised detectors score through the chunk loop of
        :func:`repro.core.streaming.predict_chunked`, so memory stays
        O(chunk) at any recording length; other symbolisers cannot
        continue codes across chunks and score in one shot.
        """
        from repro.core.streaming import DEFAULT_CHUNK_SAMPLES, predict_chunked
        from repro.core.symbolizers import LBPSymbolizer

        if not self.is_fitted:
            raise RuntimeError("detector must be fitted before predicting")
        arr = self._validate_signal(signal)
        if not isinstance(self.symbolizer, LBPSymbolizer):
            return self.predict_from_windows(self.encode(arr))
        return predict_chunked(self, arr, DEFAULT_CHUNK_SAMPLES)

    def classify_from_windows(
        self, h: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Classify encoded H vectors without assigning decision times.

        The times-free core of :meth:`predict_from_windows`: streaming
        callers classify mid-stream chunks whose wall-clock position is
        owned by the stream, so recomputing ``window_times`` from window
        zero would be wrong for every chunk but the first.

        Returns:
            ``(labels, distances, deltas)`` — int64 ``(n,)``, int64
            ``(n, 2)`` and float64 ``(n,)`` arrays.
        """
        if not self.is_fitted:
            raise RuntimeError("detector must be fitted before predicting")
        h_arr = self.engine.windows_2d(h)
        if h_arr.shape[0] == 0:
            return (
                np.zeros(0, dtype=np.int64),
                np.zeros((0, 2), dtype=np.int64),
                np.zeros(0),
            )
        labels, distances = self.engine.classify_windows(self.memory, h_arr)
        return labels, distances, delta_scores(distances)

    def predict_from_windows(self, h: np.ndarray) -> WindowPredictions:
        """Classify already-encoded H vectors in one batched sweep.

        Accepts any engine's window form (unpacked ``(n, d)`` uint8 or
        word-packed ``(n, words)`` uint64); the whole batch is scored
        against both prototypes in a single vectorized Hamming query,
        never one window at a time.  Decision times are those of a
        recording starting at window zero — mid-stream chunks must use
        :meth:`classify_from_windows` and their own clock.
        """
        labels, distances, deltas = self.classify_from_windows(h)
        return WindowPredictions(
            labels=labels,
            distances=distances,
            deltas=deltas,
            times=self.window_times(labels.shape[0]),
        )

    def postprocessor(self) -> Postprocessor:
        """The postprocessor at the detector's current t_r."""
        cfg = self.config
        return Postprocessor(
            PostprocessConfig(
                postprocess_len=cfg.postprocess_len, tc=cfg.tc, tr=self.tr
            )
        )

    def detect(self, signal: np.ndarray) -> DetectionResult:
        """Run the full pipeline and return alarms on a recording."""
        preds = self.predict(signal)
        post = self.postprocessor()
        flags = post.flags(preds.labels, preds.deltas)
        onsets = flags_to_onsets(flags)
        return DetectionResult(
            alarm_times=preds.times[onsets] if len(preds) else np.zeros(0),
            flags=flags,
            predictions=preds,
        )

    # ------------------------------------------------------------------
    # t_r tuning
    # ------------------------------------------------------------------

    def tune_tr(
        self,
        signal: np.ndarray,
        seizure_segments: list[tuple[float, float]],
        alpha: float = 0.0,
    ) -> float:
        """Tune and set t_r on a training-tail recording (Sec. III-C).

        Args:
            signal: The training-set recording (or its tail after the
                prototype segments).
            seizure_segments: Ground-truth ``(onset_s, offset_s)`` of every
                seizure inside ``signal``.
            alpha: Cohort-level confidence compensation term.

        Returns:
            The tuned t_r, which is also stored on the detector.
        """
        preds = self.predict(signal)
        truth = windows_in_segments(
            preds.times, seizure_segments, self.config.window_s
        )
        self.tr = tune_tr(
            preds.labels,
            preds.deltas,
            truth,
            alpha=alpha,
            postprocess_len=self.config.postprocess_len,
            tc=self.config.tc,
        )
        return self.tr

    def memory_footprint_bits(self) -> int:
        """Model size in bits: IM1 + IM2 + the two prototypes (Sec. V-B)."""
        return (
            self.code_memory.storage_bits()
            + self.electrode_memory.storage_bits()
            + 2 * self.config.dim
        )
