"""Tests for repro.hdc.temporal_packed (the packed block tile under the
streaming window bundler)."""

import numpy as np
import pytest

from repro.hdc.item_memory import ItemMemory
from repro.hdc.spatial import SpatialEncoder
from repro.hdc.spatial_packed import PackedSpatialEncoder
from repro.hdc.temporal import CountBlockTile, WindowBundler
from repro.hdc.temporal_packed import PackedBlockTile
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
            WindowBundler(
                spatial, WindowSpec(window_samples=30, step_samples=13),
                PackedBlockTile,
            )

    def test_rejects_wrong_channel_count(self, memories, spec):
        encoder = WindowBundler(
            PackedSpatialEncoder(*memories), spec, PackedBlockTile
        )
        with pytest.raises(ValueError):
            encoder.feed(np.zeros((10, N_ELECTRODES + 1), dtype=np.int64))


class TestEquivalence:
    def test_matches_unpacked_recording(self, memories, spec, codes):
        h_unpacked = WindowBundler(
            SpatialEncoder(*memories), spec, CountBlockTile
        ).encode_all(codes)
        h_packed = WindowBundler(
            PackedSpatialEncoder(*memories), spec, PackedBlockTile
        ).encode_all(codes)
        # Both encoders emit packed words: the reference packs its
        # integer-count majority as the last step.
        assert h_packed.dtype == h_unpacked.dtype == np.uint64
        np.testing.assert_array_equal(h_packed, h_unpacked)

    @pytest.mark.parametrize("chunk", [1, 7, 16, 33, 250])
    def test_chunked_feed_equals_one_shot(self, memories, spec, codes, chunk):
        spatial = PackedSpatialEncoder(*memories)
        one_shot = WindowBundler(
            spatial, spec, PackedBlockTile
        ).encode_all(codes)
        encoder = WindowBundler(spatial, spec, PackedBlockTile)
        pieces = [
            encoder.feed(codes[start : start + chunk])
            for start in range(0, codes.shape[0], chunk)
        ]
        np.testing.assert_array_equal(np.concatenate(pieces), one_shot)

    def test_reset_restarts_stream(self, memories, spec, codes):
        spatial = PackedSpatialEncoder(*memories)
        encoder = WindowBundler(spatial, spec, PackedBlockTile)
        encoder.feed(codes[:100])
        encoder.reset()
        np.testing.assert_array_equal(
            encoder.feed(codes),
            WindowBundler(spatial, spec, PackedBlockTile).encode_all(codes),
        )


class TestShapes:
    def test_empty_feed(self, memories, spec):
        encoder = WindowBundler(
            PackedSpatialEncoder(*memories), spec, PackedBlockTile
        )
        out = encoder.feed(np.zeros((0, N_ELECTRODES), dtype=np.int64))
        assert out.shape == (0, encoder.words)

    def test_window_count(self, memories, spec, codes):
        h = WindowBundler(
            PackedSpatialEncoder(*memories), spec, PackedBlockTile
        ).encode_all(codes)
        step = spec.step_samples
        expected = codes.shape[0] // step - (spec.window_samples // step) + 1
        assert h.shape[0] == expected
