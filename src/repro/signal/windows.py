"""Sliding-window machinery shared by Laelaps and the baselines.

The paper uses 1 s analysis windows that move every 0.5 s.  Windows are
identified by the index of their first sample; the *decision time* of a
window is the time of its last sample, because a causal detector can only
emit a label once the whole window has been observed (Laelaps also waits
for its LBP margin: :func:`repro.core.training.window_decision_times`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np


@dataclass(frozen=True)
class WindowSpec:
    """Sliding-window geometry.

    Attributes:
        window_samples: Window length in samples (512 for 1 s at 512 Hz).
        step_samples: Hop between successive windows (256 for 0.5 s).
    """

    window_samples: int
    step_samples: int

    def __post_init__(self) -> None:
        if self.window_samples < 1:
            raise ValueError(f"window_samples must be >= 1, got {self.window_samples}")
        if self.step_samples < 1:
            raise ValueError(f"step_samples must be >= 1, got {self.step_samples}")
        if self.step_samples > self.window_samples:
            raise ValueError(
                "step larger than window leaves gaps: "
                f"step={self.step_samples} > window={self.window_samples}"
            )

    @classmethod
    def from_seconds(
        cls, window_s: float, step_s: float, fs: float
    ) -> "WindowSpec":
        """Build a spec from durations in seconds at sampling rate ``fs``."""
        return cls(
            window_samples=int(round(window_s * fs)),
            step_samples=int(round(step_s * fs)),
        )


def num_windows(n_samples: int, spec: WindowSpec) -> int:
    """Number of complete windows fitting in ``n_samples``."""
    if n_samples < spec.window_samples:
        return 0
    return 1 + (n_samples - spec.window_samples) // spec.step_samples


def window_start_indices(n_samples: int, spec: WindowSpec) -> np.ndarray:
    """Start index of each complete window, shape ``(num_windows,)``."""
    count = num_windows(n_samples, spec)
    return np.arange(count) * spec.step_samples


def iter_windows(data: np.ndarray, spec: WindowSpec) -> Iterator[np.ndarray]:
    """Yield each complete window of ``data`` (a view, not a copy).

    ``data`` is windowed along axis 0.
    """
    arr = np.asarray(data)
    for start in window_start_indices(arr.shape[0], spec):
        yield arr[start : start + spec.window_samples]


def window_view(data: np.ndarray, spec: WindowSpec) -> np.ndarray:
    """All windows as a strided view, shape ``(n_win, window, ...)``.

    Uses :func:`numpy.lib.stride_tricks.sliding_window_view`; the result is
    read-only.  Prefer this over :func:`iter_windows` for vectorised code.
    """
    arr = np.asarray(data)
    count = num_windows(arr.shape[0], spec)
    if count == 0:
        shape = (0, spec.window_samples) + arr.shape[1:]
        return np.empty(shape, dtype=arr.dtype)
    swv = np.lib.stride_tricks.sliding_window_view(
        arr, spec.window_samples, axis=0
    )
    # sliding_window_view puts the window axis last; bring it to axis 1.
    windows = np.moveaxis(swv, -1, 1)
    return windows[:: spec.step_samples][:count]
