"""Tests for repro.hdc.temporal (window bundling over spatial records).

The streaming encoder runs over the integer-counter block tile here;
``test_temporal_packed.py`` covers the packed tile.
"""

import numpy as np
import pytest

from repro.hdc.backend import unpack_bits
from repro.hdc.item_memory import ItemMemory
from repro.hdc.ops import majority_from_counts
from repro.hdc.spatial import SpatialEncoder
from repro.hdc.temporal import CountBlockTile, WindowBundler
from repro.signal.windows import WindowSpec


@pytest.fixture()
def spatial() -> SpatialEncoder:
    return SpatialEncoder(ItemMemory(64, 256, seed=1), ItemMemory(3, 256, seed=2))


def _encoder(spatial: SpatialEncoder, spec: WindowSpec) -> WindowBundler:
    return WindowBundler(spatial, spec, CountBlockTile)


def _reference_h(spatial: SpatialEncoder, window_codes: np.ndarray) -> np.ndarray:
    """Direct H = [S_1 + ... + S_T] for one window."""
    s = spatial.encode(window_codes)
    return majority_from_counts(s.sum(axis=0), window_codes.shape[0])


class TestTemporalEncoder:
    def test_matches_reference_per_window(self, spatial, rng):
        spec = WindowSpec(16, 8)
        codes = rng.integers(0, 64, size=(64, 3))
        h = unpack_bits(_encoder(spatial, spec).encode_all(codes), 256)
        assert h.shape == (7, 256)
        for i in range(7):
            window = codes[i * 8 : i * 8 + 16]
            np.testing.assert_array_equal(h[i], _reference_h(spatial, window))

    def test_streaming_chunks_match_one_shot(self, spatial, rng):
        spec = WindowSpec(16, 8)
        codes = rng.integers(0, 64, size=(100, 3))
        one_shot = _encoder(spatial, spec).encode_all(codes)
        enc = _encoder(spatial, spec)
        pieces = [enc.feed(chunk) for chunk in np.array_split(codes, 7)]
        streamed = np.concatenate([p for p in pieces if p.size], axis=0)
        np.testing.assert_array_equal(streamed, one_shot)

    def test_window_count_matches_windowspec(self, spatial, rng):
        from repro.signal.windows import num_windows

        spec = WindowSpec(16, 8)
        for n in [15, 16, 17, 48, 50]:
            codes = rng.integers(0, 64, size=(n, 3))
            h = _encoder(spatial, spec).encode_all(codes)
            # Trailing samples that do not fill a block are discarded, so
            # the count equals the block-aligned window count.
            aligned = (n // 8) * 8
            assert h.shape[0] == num_windows(aligned, spec)

    def test_reset_clears_state(self, spatial, rng):
        spec = WindowSpec(16, 8)
        enc = _encoder(spatial, spec)
        enc.feed(rng.integers(0, 64, size=(12, 3)))
        enc.reset()
        codes = rng.integers(0, 64, size=(32, 3))
        h = enc.feed(codes)
        np.testing.assert_array_equal(
            h, _encoder(spatial, spec).encode_all(codes)
        )

    def test_rejects_non_multiple_window(self, spatial):
        with pytest.raises(ValueError):
            _encoder(spatial, WindowSpec(10, 4))

    def test_rejects_wrong_channel_count(self, spatial, rng):
        enc = _encoder(spatial, WindowSpec(16, 8))
        with pytest.raises(ValueError):
            enc.feed(rng.integers(0, 64, size=(8, 2)))

    def test_constant_codes_give_stable_h(self, spatial):
        # A constant code pattern yields identical S every sample, so
        # every H must equal that S.
        codes = np.tile(np.array([[7, 13, 40]]), (40, 1))
        spec = WindowSpec(16, 8)
        h = unpack_bits(_encoder(spatial, spec).encode_all(codes), 256)
        s = spatial.encode_sample(np.array([7, 13, 40]))
        for row in h:
            np.testing.assert_array_equal(row, s)
