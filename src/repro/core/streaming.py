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
signals in O(chunk) memory.  A stream's tick is staged so that the
stages after :meth:`StreamingLaelaps.encode_chunk` (symbolise, spatial
encode) run grouped over many streams
(:func:`repro.core.sessions.push_streams`); :meth:`StreamingLaelaps.push`
is that tick for a fleet of one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.detector import (
    LaelapsDetector,
    WindowPredictions,
    classify_grouped,
)
from repro.core.postprocess import AlarmStateMachine
from repro.core.training import window_decision_times
from repro.hdc.temporal import BlockTiles

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
        self._symbolizer = detector.symbolizer
        self._encoder = detector.temporal_encoder()
        self._raw_tail = np.zeros((0, detector.n_electrodes), dtype=np.float64)
        self._post = AlarmStateMachine(detector.postprocessor().config)
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

    def encode_chunk(
        self, chunk: np.ndarray, tiles: BlockTiles | None = None
    ) -> np.ndarray:
        """The per-stream stages of a tick: symbolise and spatial encode.

        Carries the symboliser tail across calls and feeds the codes to
        the temporal encoder; returns the packed uint64 H vectors of the
        windows this chunk completes — filled by ``tiles.flush()`` when
        ``tiles`` (the tick's shared block step) is given.  The chunk
        and the carried tail keep their dtype (LBP codes compare
        samples, so upcasting would only cost memory): a float32 stream
        is joined at float32, across checkpoints too.
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
            codes = np.zeros((0, self.detector.n_electrodes), dtype=np.int64)
        else:
            codes = self._symbolizer.codes(joined)
            # Keep the raw samples whose codes are not yet computable,
            # and free the joined copy before the encoder's scratch peaks.
            self._raw_tail = joined[-length:].copy()
            del joined
        return self._encoder.feed(codes, tiles)

    def alarm_machine(self) -> AlarmStateMachine:
        """The stream's alarm machine, at the detector's current t_r (it
        may be retuned mid-stream; alarms keep matching ``detect()``)."""
        if self.detector.tr != self._post.config.tr:
            self._post.config = self.detector.postprocessor().config
        return self._post

    def emit_events(
        self, labels: np.ndarray, deltas: np.ndarray, rising: np.ndarray
    ) -> list[StreamEvent]:
        """The last stage of a tick: stamps each voted window (``rising``
        is this stream's row of the alarm vote) with the stream clock."""
        n = len(labels)
        cfg = self.detector.config
        times = window_decision_times(
            n, cfg.window_spec, cfg.fs, self._symbolizer.margin,
            first=self._windows_emitted,
        )
        self._windows_emitted += n
        return [
            StreamEvent(
                time_s=float(times[k]),
                label=int(labels[k]),
                delta=float(deltas[k]),
                alarm=bool(rising[k]),
            )
            for k in range(n)
        ]

    def push(self, chunk: np.ndarray) -> list[StreamEvent]:
        """Consume a chunk of raw samples; return completed windows (the
        serving tick of :func:`repro.core.sessions.push_streams`, alone).

        Args:
            chunk: Array ``(n_samples, n_electrodes)`` continuing the
                stream (any chunk size, including smaller than a block).
        """
        from repro.core.sessions import push_streams

        return push_streams([self], [chunk])[0]

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
        """Resume from a :meth:`state_dict` snapshot (bit-exact).

        The raw tail keeps a floating dtype (a float32 stream stays
        narrow); any other dtype becomes float64.
        """
        raw_tail = np.asarray(state["raw_tail"])
        if not np.issubdtype(raw_tail.dtype, np.floating):
            raw_tail = raw_tail.astype(np.float64)
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
    labels_parts = [np.zeros(0, dtype=np.int64)]
    distances_parts = [np.zeros((0, 2), dtype=np.int64)]
    for start in range(0, signal.shape[0], chunk_samples):
        h = stream.encode_chunk(signal[start : start + chunk_samples])
        if h.shape[0]:
            labels, distances = classify_grouped([detector], [h])
            labels_parts.append(labels)
            distances_parts.append(distances)
    return detector.window_predictions(
        np.concatenate(labels_parts), np.concatenate(distances_parts)
    )
