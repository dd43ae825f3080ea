"""Tests for repro.hdc.temporal_packed (packed window bundler)."""

import numpy as np
import pytest

from repro.hdc.backend import unpack_bits
from repro.hdc.item_memory import ItemMemory
from repro.hdc.spatial import SpatialEncoder
from repro.hdc.spatial_packed import PackedSpatialEncoder
from repro.hdc.temporal import encode_recording
from repro.hdc.temporal_packed import PackedTemporalEncoder
from repro.signal.windows import WindowSpec

DIM = 200
N_ELECTRODES = 5
FS = 32.0


@pytest.fixture(scope="module")
def memories():
    return ItemMemory(16, DIM, seed=1), ItemMemory(N_ELECTRODES, DIM, seed=2)


@pytest.fixture(scope="module")
def spec():
    return WindowSpec.from_seconds(1.0, 0.5, FS)


@pytest.fixture()
def codes(rng):
    return rng.integers(0, 16, (500, N_ELECTRODES))


class TestConstruction:
    def test_rejects_non_tiling_window(self, memories):
        spatial = PackedSpatialEncoder(*memories)
        with pytest.raises(ValueError):
            PackedTemporalEncoder(
                spatial, WindowSpec(window_samples=30, step_samples=13)
            )

    def test_rejects_wrong_channel_count(self, memories, spec):
        encoder = PackedTemporalEncoder(PackedSpatialEncoder(*memories), spec)
        with pytest.raises(ValueError):
            encoder.feed(np.zeros((10, N_ELECTRODES + 1), dtype=np.int64))


class TestEquivalence:
    def test_matches_unpacked_recording(self, memories, spec, codes):
        h_unpacked = encode_recording(
            codes, SpatialEncoder(*memories), spec
        )
        h_packed = PackedTemporalEncoder(
            PackedSpatialEncoder(*memories), spec
        ).encode_all(codes)
        assert h_packed.dtype == np.uint64
        np.testing.assert_array_equal(unpack_bits(h_packed, DIM), h_unpacked)

    @pytest.mark.parametrize("chunk", [1, 7, 16, 33, 250])
    def test_chunked_feed_equals_one_shot(self, memories, spec, codes, chunk):
        spatial = PackedSpatialEncoder(*memories)
        one_shot = PackedTemporalEncoder(spatial, spec).encode_all(codes)
        encoder = PackedTemporalEncoder(spatial, spec)
        pieces = [
            encoder.feed(codes[start : start + chunk])
            for start in range(0, codes.shape[0], chunk)
        ]
        np.testing.assert_array_equal(np.concatenate(pieces), one_shot)

    def test_reset_restarts_stream(self, memories, spec, codes):
        spatial = PackedSpatialEncoder(*memories)
        encoder = PackedTemporalEncoder(spatial, spec)
        encoder.feed(codes[:100])
        encoder.reset()
        np.testing.assert_array_equal(
            encoder.feed(codes),
            PackedTemporalEncoder(spatial, spec).encode_all(codes),
        )


class TestShapes:
    def test_empty_feed(self, memories, spec):
        encoder = PackedTemporalEncoder(PackedSpatialEncoder(*memories), spec)
        out = encoder.feed(np.zeros((0, N_ELECTRODES), dtype=np.int64))
        assert out.shape == (0, encoder.words)

    def test_window_count(self, memories, spec, codes):
        h = PackedTemporalEncoder(
            PackedSpatialEncoder(*memories), spec
        ).encode_all(codes)
        step = spec.step_samples
        expected = codes.shape[0] // step - (spec.window_samples // step) + 1
        assert h.shape[0] == expected
