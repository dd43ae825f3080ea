"""Tests for repro.signal.windows."""

import numpy as np
import pytest

from repro.signal.windows import (
    WindowSpec,
    iter_windows,
    num_windows,
    window_start_indices,
    window_view,
)


class TestWindowSpec:
    def test_from_seconds(self):
        spec = WindowSpec.from_seconds(1.0, 0.5, 512.0)
        assert spec.window_samples == 512
        assert spec.step_samples == 256

    def test_rejects_zero_window(self):
        with pytest.raises(ValueError):
            WindowSpec(0, 1)

    def test_rejects_zero_step(self):
        with pytest.raises(ValueError):
            WindowSpec(4, 0)

    def test_rejects_gap_leaving_step(self):
        with pytest.raises(ValueError):
            WindowSpec(4, 5)


class TestCounting:
    @pytest.mark.parametrize(
        "n,window,step,expected",
        [
            (0, 4, 2, 0),
            (3, 4, 2, 0),
            (4, 4, 2, 1),
            (5, 4, 2, 1),
            (6, 4, 2, 2),
            (10, 4, 2, 4),
            (10, 4, 4, 2),
            (10, 10, 1, 1),
        ],
    )
    def test_num_windows(self, n, window, step, expected):
        assert num_windows(n, WindowSpec(window, step)) == expected

    def test_start_indices_spacing(self):
        starts = window_start_indices(20, WindowSpec(4, 3))
        np.testing.assert_array_equal(starts, [0, 3, 6, 9, 12, 15])


class TestViews:
    def test_iter_matches_view(self):
        data = np.arange(23)
        spec = WindowSpec(5, 3)
        from_iter = list(iter_windows(data, spec))
        from_view = window_view(data, spec)
        assert len(from_iter) == from_view.shape[0]
        for a, b in zip(from_iter, from_view):
            np.testing.assert_array_equal(a, b)

    def test_view_multichannel_shape(self):
        data = np.arange(40).reshape(20, 2)
        view = window_view(data, WindowSpec(4, 2))
        assert view.shape == (9, 4, 2)

    def test_view_contents(self):
        data = np.arange(10)
        view = window_view(data, WindowSpec(4, 2))
        np.testing.assert_array_equal(view[0], [0, 1, 2, 3])
        np.testing.assert_array_equal(view[1], [2, 3, 4, 5])
        np.testing.assert_array_equal(view[-1], [6, 7, 8, 9])

    def test_empty_input_gives_empty_view(self):
        view = window_view(np.zeros((2, 3)), WindowSpec(4, 2))
        assert view.shape == (0, 4, 3)

    def test_windows_cover_every_step_sample(self):
        data = np.arange(100)
        spec = WindowSpec(10, 5)
        view = window_view(data, spec)
        # Window i must start at i * step.
        for i in range(view.shape[0]):
            assert view[i, 0] == i * 5
