"""Online (streaming) inference for a fitted Laelaps detector.

The GPU implementation of Sec. V processes one 0.5 s step at a time; this
module provides the same incremental dataflow in pure Python: raw samples
are pushed in arbitrary chunks, LBP codes continue seamlessly across
chunk boundaries, the temporal encoder emits an H vector per completed
0.5 s block, and the shared :class:`~repro.core.postprocess.AlarmStateMachine`
votes over a rolling window of the last ten labels.  Memory use is O(d)
regardless of stream length.

Because the postprocessor *is* the batch one (same class, resumable),
``run()`` raises alarms at exactly the window indices where
``LaelapsDetector.detect()`` does, for every ``t_c <= postprocess_len``
and any chunking — including the warm-up contract that no alarm can fire
before ``postprocess_len`` labels exist.

The same tail carry is the detector's one inference core:
:func:`predict_chunked` feeds a whole recording through
:meth:`StreamingLaelaps.encode_chunk` a chunk at a time, which is how
``LaelapsDetector.predict`` and the out-of-core evaluation path score
signals in O(chunk) memory.  Multi-patient serving is layered on top of
:class:`StreamingLaelaps` by
:class:`repro.core.sessions.StreamSessionManager`, which drives many
streams through the two-phase split :meth:`StreamingLaelaps.encode_chunk`
/ :meth:`StreamingLaelaps.emit_events` so classification can be batched
across sessions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.detector import LaelapsDetector, WindowPredictions
from repro.core.postprocess import (
    AlarmStateMachine,
    PostprocessConfig,
    delta_scores,
)

#: Raw samples per chunk of :func:`predict_chunked`.  Sized so the
#: transient buffers (chunk + LBP codes + the engine's per-block
#: scratch) stay well under the out-of-core RAM budget even at 1024
#: channels, while each chunk still spans many analysis windows.
DEFAULT_CHUNK_SAMPLES = 4096


@dataclass(frozen=True)
class StreamEvent:
    """One classified analysis window from the stream.

    Attributes:
        time_s: Decision time of the window (stream time).
        label: INTERICTAL/ICTAL classifier label.
        delta: Confidence score |d0 - d1|.
        alarm: True when this window *newly* satisfies the alarm
            condition (rising edge of the t_c / t_r vote).
    """

    time_s: float
    label: int
    delta: float
    alarm: bool


class StreamingLaelaps:
    """Incremental wrapper around a fitted :class:`LaelapsDetector`.

    Args:
        detector: A fitted detector (prototypes stored, t_r set).

    Push raw sample chunks with :meth:`push`; each call returns the
    stream events whose windows completed inside that chunk.  The
    stream runs on whichever compute engine the detector was built
    with — on the word-domain engines the H vectors never leave the
    packed form between the encoder and the associative memory.

    Code continuation and decision times follow the detector's
    *symbolizer* (not the config's default LBP length), so a detector
    built with a custom-length :class:`~repro.core.symbolizers.LBPSymbolizer`
    streams with the same codes and clock as its batch path.
    """

    def __init__(self, detector: LaelapsDetector) -> None:
        from repro.core.symbolizers import LBPSymbolizer

        if not detector.is_fitted:
            raise ValueError("detector must be fitted before streaming")
        if not isinstance(detector.symbolizer, LBPSymbolizer):
            raise ValueError(
                "streaming supports the LBP symboliser only (its margin "
                "semantics drive the chunk-boundary continuation)"
            )
        self.detector = detector
        cfg = detector.config
        self._symbolizer = detector.symbolizer
        self._encoder = detector.temporal_encoder()
        self._raw_tail = np.zeros((0, detector.n_electrodes), dtype=np.float64)
        self._post = AlarmStateMachine(
            PostprocessConfig(
                postprocess_len=cfg.postprocess_len, tc=cfg.tc, tr=detector.tr
            )
        )
        self._samples_seen = 0
        self._windows_emitted = 0

    @property
    def samples_seen(self) -> int:
        """Raw samples consumed so far."""
        return self._samples_seen

    @property
    def windows_emitted(self) -> int:
        """Analysis windows classified so far."""
        return self._windows_emitted

    @property
    def postprocessor_state(self) -> AlarmStateMachine:
        """The live alarm state machine (shared batch/stream semantics)."""
        return self._post

    def encode_chunk(self, chunk: np.ndarray) -> np.ndarray:
        """Phase 1 of :meth:`push`: raw samples to completed H vectors.

        Buffers the symboliser tail across calls and advances the
        temporal encoder; returns the H vectors of the windows completed
        by this chunk (possibly zero) in the backend's representation.
        Classification is *not* performed — callers either classify
        immediately (:meth:`push`, :func:`predict_chunked`) or batch
        across many sessions
        (:class:`repro.core.sessions.StreamSessionManager`).

        The chunk keeps its dtype: LBP codes are signs of sample
        differences, which no float or integer width changes, so
        upcasting would only cost memory.
        """
        arr = np.asarray(chunk)
        if arr.ndim != 2 or arr.shape[1] != self.detector.n_electrodes:
            raise ValueError(
                f"expected (n, {self.detector.n_electrodes}), got {arr.shape}"
            )
        self._samples_seen += arr.shape[0]
        joined = (
            np.concatenate([self._raw_tail, arr], axis=0)
            if self._raw_tail.shape[0]
            else arr
        )
        length = self._symbolizer.length
        if joined.shape[0] <= length:
            # A copy: ``joined`` may be a view of the caller's buffer.
            self._raw_tail = joined.copy()
            return self._encoder.feed(
                np.zeros((0, self.detector.n_electrodes), dtype=np.int64)
            )
        codes = self._symbolizer.codes(joined)
        # Keep the raw samples whose codes are not yet computable, and
        # free the joined copy before the encoder's scratch peaks.
        self._raw_tail = joined[-length:].copy()
        del joined
        return self._encoder.feed(codes)

    def emit_events(
        self, labels: np.ndarray, deltas: np.ndarray
    ) -> list[StreamEvent]:
        """Phase 2 of :meth:`push`: classified windows to stream events.

        Feeds the shared alarm state machine and stamps each window with
        the stream clock (global window index, symboliser margin), so
        decision times are correct for mid-stream chunks.
        """
        labels_arr = np.asarray(labels, dtype=np.int64)
        deltas_arr = np.asarray(deltas, dtype=np.float64)
        n = labels_arr.shape[0]
        if n == 0:
            return []
        cfg = self.detector.config
        # t_r lives on the detector and may be (re)tuned after this
        # stream was opened; track it so alarms keep matching detect().
        if self.detector.tr != self._post.config.tr:
            self._post.config = PostprocessConfig(
                postprocess_len=cfg.postprocess_len,
                tc=cfg.tc,
                tr=self.detector.tr,
            )
        spec = cfg.window_spec
        index = self._windows_emitted + np.arange(n)
        times = (
            index * spec.step_samples
            + spec.window_samples
            + self._symbolizer.margin
        ) / cfg.fs
        _, rising = self._post.update(labels_arr, deltas_arr)
        self._windows_emitted += n
        return [
            StreamEvent(
                time_s=float(times[k]),
                label=int(labels_arr[k]),
                delta=float(deltas_arr[k]),
                alarm=bool(rising[k]),
            )
            for k in range(n)
        ]

    def push(self, chunk: np.ndarray) -> list[StreamEvent]:
        """Consume a chunk of raw samples; return completed windows.

        Args:
            chunk: Array ``(n_samples, n_electrodes)`` continuing the
                stream (any chunk size, including smaller than a block).
        """
        h_vectors = self.encode_chunk(chunk)
        if h_vectors.shape[0] == 0:
            return []
        labels, _, deltas = self.detector.classify_from_windows(h_vectors)
        return self.emit_events(labels, deltas)

    def run(self, signal: np.ndarray, chunk_samples: int) -> list[StreamEvent]:
        """Convenience: stream a whole recording in fixed-size chunks."""
        events: list[StreamEvent] = []
        for start in range(0, signal.shape[0], chunk_samples):
            events.extend(self.push(signal[start : start + chunk_samples]))
        return events

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------

    def state_dict(self) -> dict:
        """Snapshot of the live stream state (model excluded).

        Everything needed to resume the stream bit-exactly on a detector
        reloaded from :func:`repro.core.persistence.load_model`: the raw
        symboliser tail, the temporal-encoder buffers and the alarm
        state machine, plus the sample/window counters.
        """
        return {
            "raw_tail": self._raw_tail.copy(),
            "samples_seen": int(self._samples_seen),
            "windows_emitted": int(self._windows_emitted),
            "encoder": self._encoder.state_dict(),
            "post": self._post.state_dict(),
        }

    def restore_state(self, state: dict) -> "StreamingLaelaps":
        """Resume from a :meth:`state_dict` snapshot (bit-exact)."""
        raw_tail = np.asarray(state["raw_tail"], dtype=np.float64)
        if raw_tail.ndim != 2 or raw_tail.shape[1] != self.detector.n_electrodes:
            raise ValueError(
                f"raw tail must be (n, {self.detector.n_electrodes}), "
                f"got {raw_tail.shape}"
            )
        self._raw_tail = raw_tail.copy()
        self._samples_seen = int(state["samples_seen"])
        self._windows_emitted = int(state["windows_emitted"])
        self._encoder.restore_state(state["encoder"])
        self._post.restore_state(state["post"])
        return self


def predict_chunked(
    detector: LaelapsDetector,
    signal: np.ndarray,
    chunk_samples: int = DEFAULT_CHUNK_SAMPLES,
) -> WindowPredictions:
    """Score a recording chunk by chunk: the one inference loop.

    Each chunk of raw samples goes through
    :meth:`StreamingLaelaps.encode_chunk` (LBP codes continue across
    chunk boundaries through the carried tail, the temporal encoder
    buffers partial blocks) and its completed windows are classified at
    once, so peak memory is O(chunk) whatever the recording length —
    ``signal`` may be a memmap view that must never be materialised.
    Labels, distances and decision times equal those of a one-shot
    ``encode`` + ``predict_from_windows`` for every chunk size.

    Args:
        detector: A fitted, LBP-symbolised detector.
        signal: Recording ``(n_samples, n_electrodes)``.
        chunk_samples: Raw samples per chunk (memory only: predictions
            are identical for every value).

    Raises:
        ValueError: On a bad chunk size or signal shape.
    """
    if chunk_samples < 1:
        raise ValueError(f"chunk_samples must be >= 1, got {chunk_samples}")
    if signal.ndim != 2 or signal.shape[1] != detector.n_electrodes:
        raise ValueError(
            f"expected (n_samples, {detector.n_electrodes}) signal, "
            f"got shape {signal.shape}"
        )
    stream = StreamingLaelaps(detector)
    labels_parts: list[np.ndarray] = []
    distances_parts: list[np.ndarray] = []
    for start in range(0, signal.shape[0], chunk_samples):
        h = stream.encode_chunk(signal[start : start + chunk_samples])
        if h.shape[0]:
            labels, distances, _ = detector.classify_from_windows(h)
            labels_parts.append(labels)
            distances_parts.append(distances)
    if labels_parts:
        labels = np.concatenate(labels_parts)
        distances = np.concatenate(distances_parts, axis=0)
    else:
        labels = np.zeros(0, dtype=np.int64)
        distances = np.zeros((0, 2), dtype=np.int64)
    return WindowPredictions(
        labels=labels,
        distances=distances,
        deltas=delta_scores(distances),
        times=detector.window_times(labels.shape[0]),
    )
