"""Tests for repro.core.streaming (online inference)."""

import numpy as np
import pytest

from repro.core.detector import LaelapsDetector
from repro.core.streaming import StreamingLaelaps
from repro.core.symbolizers import LBPSymbolizer


class TestConstruction:
    def test_requires_fitted_detector(self, small_config):
        detector = LaelapsDetector(4, small_config)
        with pytest.raises(ValueError):
            StreamingLaelaps(detector)


class TestEquivalenceWithBatch:
    """Streaming must reproduce the batch pipeline exactly."""

    @pytest.fixture(scope="class", params=[64, 150, 256, 1000])
    def chunk_size(self, request):
        return request.param

    def test_labels_match_batch(
        self, fitted_detector, mini_recording, chunk_size
    ):
        batch = fitted_detector.predict(mini_recording.data)
        streamer = StreamingLaelaps(fitted_detector)
        events = streamer.run(mini_recording.data, chunk_size)
        assert len(events) == len(batch)
        np.testing.assert_array_equal(
            [e.label for e in events], batch.labels
        )
        np.testing.assert_allclose(
            [e.delta for e in events], batch.deltas
        )
        np.testing.assert_allclose(
            [e.time_s for e in events], batch.times
        )

    def test_alarm_edges_match_batch_detect(
        self, fitted_detector, mini_recording
    ):
        result = fitted_detector.detect(mini_recording.data)
        streamer = StreamingLaelaps(fitted_detector)
        events = streamer.run(mini_recording.data, 333)
        stream_alarms = [e.time_s for e in events if e.alarm]
        np.testing.assert_allclose(stream_alarms, result.alarm_times)


class TestStreamingBehaviour:
    def test_tiny_chunks_buffered(self, fitted_detector, mini_recording):
        streamer = StreamingLaelaps(fitted_detector)
        # Push three samples at a time; windows still complete.
        events = streamer.run(mini_recording.data[: 256 * 10], 3)
        assert streamer.windows_emitted == len(events) > 0

    def test_counters(self, fitted_detector, mini_recording):
        streamer = StreamingLaelaps(fitted_detector)
        streamer.push(mini_recording.data[:1000])
        assert streamer.samples_seen == 1000

    def test_wrong_channel_count_raises(self, fitted_detector):
        streamer = StreamingLaelaps(fitted_detector)
        with pytest.raises(ValueError):
            streamer.push(np.zeros((10, 2)))

    def test_no_events_before_first_window(self, fitted_detector):
        streamer = StreamingLaelaps(fitted_detector)
        spec = fitted_detector.config.window_spec
        events = streamer.push(
            np.zeros((spec.step_samples // 2, fitted_detector.n_electrodes))
        )
        assert events == []

    def test_custom_symbolizer_length_matches_batch(
        self, mini_recording, mini_segments, small_config
    ):
        # Regression: streaming used cfg.lbp_length for code continuation
        # and decision times, so a custom-length LBPSymbolizer silently
        # produced wrong codes and times.  The symboliser is authoritative.
        symbolizer = LBPSymbolizer(4)
        assert symbolizer.length != small_config.lbp_length
        detector = LaelapsDetector(
            mini_recording.n_electrodes, small_config, symbolizer=symbolizer
        )
        detector.fit(mini_recording.data, mini_segments)
        segment = mini_recording.data[: 256 * 60]
        batch = detector.predict(segment)
        events = StreamingLaelaps(detector).run(segment, 777)
        assert len(events) == len(batch)
        np.testing.assert_array_equal(
            [e.label for e in events], batch.labels
        )
        np.testing.assert_allclose([e.time_s for e in events], batch.times)

    def test_mid_stream_chunk_times_continue(
        self, fitted_detector, mini_recording
    ):
        # Regression: per-chunk times restarted at window zero because
        # push() recomputed window_times from scratch for every chunk.
        streamer = StreamingLaelaps(fitted_detector)
        segment = mini_recording.data[: 256 * 30]
        times = [
            e.time_s for e in streamer.run(segment, 1000)
        ]
        expected = fitted_detector.window_times(len(times))
        np.testing.assert_allclose(times, expected)
        assert np.all(np.diff(times) > 0)

    def test_tr_retuned_after_open_is_honoured(
        self, fitted_detector, mini_recording
    ):
        # Regression: the stream froze detector.tr at construction; a
        # threshold (re)tuned afterwards must apply, matching detect().
        segment = mini_recording.data[: 256 * 60]
        streamer = StreamingLaelaps(fitted_detector)
        old_tr = fitted_detector.tr
        try:
            fitted_detector.tr = 1e9  # suppress everything
            batch = fitted_detector.detect(segment)
            events = streamer.run(segment, 512)
            assert batch.alarm_times.size == 0
            assert not any(e.alarm for e in events)
        finally:
            fitted_detector.tr = old_tr

    def test_checkpoint_resume_matches_uninterrupted(
        self, fitted_detector, mini_recording
    ):
        segment = mini_recording.data[: 256 * 40]
        reference = StreamingLaelaps(fitted_detector).run(segment, 300)
        first = StreamingLaelaps(fitted_detector)
        cut = 256 * 17 + 131  # mid-block, mid-code
        head = first.run(segment[:cut], 300)
        resumed = StreamingLaelaps(fitted_detector).restore_state(
            first.state_dict()
        )
        tail = resumed.run(segment[cut:], 300)
        assert head + tail == reference

    def test_restore_keeps_a_floating_tail_and_widens_the_rest(
        self, fitted_detector, mini_recording
    ):
        stream = StreamingLaelaps(fitted_detector)
        stream.run(mini_recording.data[:1000].astype(np.float32), 300)
        state = stream.state_dict()
        assert state["raw_tail"].dtype == np.float32
        for dtype, restored in ((np.float32, np.float32),
                                (np.float16, np.float16),
                                (np.int64, np.float64)):
            tail = state["raw_tail"].astype(dtype)
            resumed = StreamingLaelaps(fitted_detector).restore_state(
                {**state, "raw_tail": tail}
            )
            assert resumed.state_dict()["raw_tail"].dtype == restored

    def test_alarm_fires_once_per_episode(
        self, mini_recording, mini_segments, small_config
    ):
        detector = LaelapsDetector(
            mini_recording.n_electrodes, small_config
        )
        detector.fit(mini_recording.data, mini_segments)
        streamer = StreamingLaelaps(detector)
        events = streamer.run(mini_recording.data, 512)
        alarms = [e for e in events if e.alarm]
        # Two seizures -> at most a few rising edges, not one per window.
        ictal_windows = sum(1 for e in events if e.label == 1)
        assert 1 <= len(alarms) <= 4
        assert ictal_windows > len(alarms)
