"""Tests for repro.core.training."""

import numpy as np
import pytest

from repro.core.training import (
    TrainingSegments,
    segment_slice,
    window_decision_times,
    windows_in_segments,
)
from repro.signal.windows import WindowSpec


class TestTrainingSegments:
    def test_valid(self):
        segments = TrainingSegments(
            ictal=((10.0, 30.0),), interictal=(100.0, 130.0)
        )
        assert len(segments.ictal) == 1

    def test_rejects_empty_ictal(self):
        with pytest.raises(ValueError):
            TrainingSegments(ictal=(), interictal=(0.0, 30.0))

    def test_rejects_reversed_segment(self):
        with pytest.raises(ValueError):
            TrainingSegments(ictal=((30.0, 10.0),), interictal=(0.0, 30.0))


class TestSegmentSlice:
    def test_basic(self):
        sl = segment_slice((1.0, 2.0), fs=100.0, n_samples=1000)
        assert sl == slice(100, 200)

    def test_margin_extends_end(self):
        sl = segment_slice((1.0, 2.0), fs=100.0, n_samples=1000, margin=6)
        assert sl == slice(100, 206)

    def test_clipped_to_recording(self):
        sl = segment_slice((8.0, 12.0), fs=100.0, n_samples=1000)
        assert sl == slice(800, 1000)

    def test_outside_recording_raises(self):
        with pytest.raises(ValueError):
            segment_slice((20.0, 30.0), fs=100.0, n_samples=1000)


class TestDecisionTimes:
    def test_formula(self):
        times = window_decision_times(3, WindowSpec(256, 128), fs=256.0, lbp_length=6)
        np.testing.assert_allclose(
            times, [(256 + 6) / 256, (128 + 256 + 6) / 256, (256 + 256 + 6) / 256]
        )

    def test_monotone_increasing(self):
        times = window_decision_times(50, WindowSpec(512, 256), 512.0, 6)
        assert np.all(np.diff(times) > 0)

    def test_first_window_offsets_the_same_clock(self):
        # A stream stamps windows first .. first + n - 1 with the very
        # floats a recording's window_times gives them.
        spec = WindowSpec(512, 256)
        whole = window_decision_times(40, spec, 512.0, 6)
        for first in (0, 1, 17, 39):
            np.testing.assert_array_equal(
                window_decision_times(40 - first, spec, 512.0, 6, first=first),
                whole[first:],
            )


class TestWindowsInSegments:
    def test_window_fully_inside(self):
        times = np.array([1.0, 2.0, 3.0, 4.0])
        mask = windows_in_segments(times, [(1.5, 3.5)], window_s=1.0)
        np.testing.assert_array_equal(mask, [False, False, True, False])

    def test_multiple_segments_union(self):
        times = np.array([1.0, 5.0, 9.0])
        mask = windows_in_segments(
            times, [(0.0, 1.5), (8.0, 10.0)], window_s=1.0
        )
        np.testing.assert_array_equal(mask, [True, False, True])

    def test_empty_segments(self):
        mask = windows_in_segments(np.array([1.0, 2.0]), [], window_s=1.0)
        assert not mask.any()
