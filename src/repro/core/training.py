"""Selection of training segments and window bookkeeping.

The paper trains each patient-specific model from one or two ictal states
(10-30 s each) and a single 30 s interictal state chosen 10 min before the
first seizure onset (Sec. IV-B).  This module holds the segment containers
and the time <-> window-index arithmetic shared by training, t_r tuning
and evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.signal.windows import WindowSpec


@dataclass(frozen=True)
class TrainingSegments:
    """Time segments (in seconds) used to train the prototypes.

    Attributes:
        ictal: One or two ``(start_s, end_s)`` seizure segments.
        interictal: A single ``(start_s, end_s)`` interictal segment.
    """

    ictal: tuple[tuple[float, float], ...]
    interictal: tuple[float, float]

    def __post_init__(self) -> None:
        if not self.ictal:
            raise ValueError("at least one ictal training segment is required")
        for start, end in list(self.ictal) + [self.interictal]:
            if end <= start:
                raise ValueError(f"segment ({start}, {end}) is empty or reversed")


def segment_slice(
    segment: tuple[float, float], fs: float, n_samples: int, margin: int = 0
) -> slice:
    """Sample slice of a time segment, clipped to the recording.

    Args:
        segment: ``(start_s, end_s)`` in seconds.
        fs: Sampling rate in Hz.
        n_samples: Length of the recording in samples.
        margin: Extra trailing samples to include (e.g. the LBP length so
            the last codes of the segment can be computed).
    """
    start_s, end_s = segment
    start = max(0, int(round(start_s * fs)))
    end = min(n_samples, int(round(end_s * fs)) + margin)
    if end <= start:
        raise ValueError(
            f"segment ({start_s}, {end_s}) s lies outside the recording"
        )
    return slice(start, end)


def window_decision_times(
    n_windows: int,
    spec: WindowSpec,
    fs: float,
    lbp_length: int,
    first: int = 0,
) -> np.ndarray:
    """Decision time (s) of windows ``first .. first + n_windows - 1``.

    Window ``i`` covers code samples ``[i * step, i * step + window)``;
    code ``t`` requires raw samples up to ``t + lbp_length``, so the label
    of window ``i`` becomes available at
    ``(i * step + window + lbp_length) / fs`` seconds.  The one clock of
    every detector, batch or streamed.
    """
    starts = (first + np.arange(n_windows)) * spec.step_samples
    return (starts + spec.window_samples + lbp_length) / fs


def windows_in_segments(
    times: np.ndarray,
    segments: list[tuple[float, float]],
    window_s: float,
) -> np.ndarray:
    """Boolean mask of windows lying fully inside any of the segments.

    Args:
        times: Decision times of the windows (seconds).
        segments: ``(start_s, end_s)`` intervals.
        window_s: Window length in seconds (a window at decision time t
            spans ``[t - window_s, t]``).

    Returns:
        Boolean array aligned with ``times``.
    """
    times_arr = np.asarray(times, dtype=np.float64)
    mask = np.zeros(times_arr.shape, dtype=bool)
    for start_s, end_s in segments:
        mask |= (times_arr - window_s >= start_s) & (times_arr <= end_s)
    return mask


@dataclass
class FitReport:
    """Diagnostics recorded while fitting a detector.

    Attributes:
        n_ictal_windows: H vectors bundled into the ictal prototype.
        n_interictal_windows: H vectors bundled into the interictal one.
        prototype_distance: Hamming distance between the two prototypes —
            a small value warns that the two states are poorly separated.
        mean_trained_ictal_delta: Mean delta score of the training ictal
            windows against the final prototypes (feeds the alpha term of
            the t_r tuning rule).
    """

    n_ictal_windows: int = 0
    n_interictal_windows: int = 0
    prototype_distance: int = 0
    mean_trained_ictal_delta: float = field(default=0.0)
