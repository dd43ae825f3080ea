"""Tests for repro.hdc.temporal_packed (the packed block tile under the
streaming window bundler) and for the slab flush every block tile runs."""

import gc
import os
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hdc import temporal
from repro.hdc.backend import pack_bits, packed_words
from repro.hdc.engine import build_engine, engine_names
from repro.hdc.item_memory import ItemMemory
from repro.hdc.native import (
    NATIVE_PURE_PYTHON_ENV,
    NativeBlockTile,
    NativeSpatialEncoder,
)
from repro.hdc.spatial import SpatialEncoder
from repro.hdc.spatial_packed import PackedSpatialEncoder
from repro.hdc.temporal import BlockTiles, CountBlockTile, WindowBundler
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


#: The spatial encoder and block tile of every engine.
KERNELS = (
    (SpatialEncoder, CountBlockTile),
    (PackedSpatialEncoder, PackedBlockTile),
    (NativeSpatialEncoder, NativeBlockTile),
)


def _reference(spatial: SpatialEncoder, spec: WindowSpec,
               codes: np.ndarray) -> np.ndarray:
    """Packed H vectors straight from the unpacked records (the oracle)."""
    records = spatial.encode(codes).astype(np.int64)
    window, step = spec.window_samples, spec.step_samples
    counts = [records[start : start + window].sum(axis=0)
              for start in range(0, len(codes) - window + 1, step)]
    return pack_bits((np.array(counts) > window // 2).astype(np.uint8))


class _SlabSpy:
    """Patches a tile class's ``_add`` to record each slab's samples."""

    def __init__(self, tile_class: type) -> None:
        self.samples: list[int] = []
        add = tile_class._add

        def spy(tile, counter, slab):
            self.samples.append(slab.shape[0])
            add(tile, counter, slab)

        self.patch = mock.patch.object(tile_class, "_add", spy)


class TestSlabEdges:
    """Slabs that split blocks, in tiles that mix runs, on every engine."""

    # Eleven words, the top one mostly padding: wide enough that a tile
    # of a few rows stages fewer codes than its slab budget allows.
    DIM = 641
    SPEC = WindowSpec(32, 16)

    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_one_run_split_at_k(self, k, rng):
        # An offline feed stages all its blocks as one run.
        memories = ItemMemory(16, self.DIM, seed=1), ItemMemory(5, self.DIM, seed=2)
        codes = rng.integers(0, 16, (100, 5))
        expected = _reference(SpatialEncoder(*memories), self.SPEC, codes)
        budget = k * 6 * packed_words(self.DIM)  # six blocks per feed
        for spatial_class, tile_class in KERNELS:
            spy = _SlabSpy(tile_class)
            with mock.patch.object(temporal, "_TILE_WORDS", budget), spy.patch:
                h = WindowBundler(spatial_class(*memories), self.SPEC,
                                  tile_class).encode_all(codes)
            np.testing.assert_array_equal(h, expected, err_msg=tile_class.__name__)
            if tile_class is not CountBlockTile:
                assert spy.samples == [k] * (16 // k) + [16 % k] * (16 % k > 0)

    @settings(max_examples=10, deadline=None)
    @given(st.sampled_from([1, 2, 5]), st.integers(0, 2**32 - 1), st.data())
    def test_mixed_runs_ragged_chunks_and_a_checkpoint(self, k, seed, data):
        # Three streams of 3, 4 and 5 electrodes share each tick's tiles
        # of three rows, so a tile holds runs of one, two and three
        # blocks; every stream is checkpointed and restored once.
        rng = np.random.default_rng(seed)
        electrodes = (3, 4, 5)
        memories = {e: (ItemMemory(16, self.DIM, seed=1),
                        ItemMemory(e, self.DIM, seed=e)) for e in electrodes}
        codes = {e: rng.integers(0, 16, (160, e)) for e in electrodes}
        ticks = []
        while len(ticks) < 3 or min(map(sum, zip(*ticks))) < 160:
            ticks.append([data.draw(st.integers(16, 48)) for _ in electrodes])
        restore_tick = data.draw(st.integers(0, len(ticks) - 1))
        budget = k * 3 * packed_words(self.DIM)
        for spatial_class, tile_class in KERNELS:
            spy = _SlabSpy(tile_class)
            streams = {e: WindowBundler(spatial_class(*memories[e]), self.SPEC,
                                        tile_class) for e in electrodes}
            outputs = {e: [] for e in electrodes}
            position = dict.fromkeys(electrodes, 0)
            with mock.patch.object(temporal, "_TILE_WORDS", budget), spy.patch:
                for tick, sizes in enumerate(ticks):
                    tiles = BlockTiles(max_rows=3)
                    for e, size in zip(electrodes, sizes):
                        chunk = codes[e][position[e] : position[e] + size]
                        position[e] += len(chunk)
                        outputs[e].append(streams[e].feed(chunk, tiles))
                    tiles.flush()
                    if tick == restore_tick:
                        for e in electrodes:
                            state = streams[e].state_dict()
                            streams[e] = WindowBundler(
                                spatial_class(*memories[e]), self.SPEC,
                                tile_class).restore_state(state)
            for e in electrodes:
                np.testing.assert_array_equal(
                    np.concatenate(outputs[e]),
                    _reference(SpatialEncoder(*memories[e]), self.SPEC, codes[e]),
                    err_msg=f"{tile_class.__name__}, {e} electrodes",
                )
            if tile_class is not CountBlockTile:
                assert k in spy.samples


class TestStagedCodes:
    def test_feed_keeps_the_codes_as_fed(self, memories, spec, rng):
        # Blocks are encoded at the tick's flush; overwriting the fed
        # array before it must not change the H vectors.
        codes = rng.integers(0, 16, (100, N_ELECTRODES))
        with mock.patch.dict(os.environ, {NATIVE_PURE_PYTHON_ENV: "1"}):
            engines = [build_engine(name, *memories, spec)
                       for name in engine_names()]
        for engine in engines:
            expected = engine.temporal_encoder().encode_all(codes)
            tiles = BlockTiles()
            fed = codes.copy()
            h = engine.temporal_encoder().feed(fed, tiles)
            fed[...] = 15 - fed
            tiles.flush()
            np.testing.assert_array_equal(h, expected, err_msg=engine.name)

    def test_out_of_range_code_fails_at_feed(self, memories, spec):
        encoder = WindowBundler(
            PackedSpatialEncoder(*memories), spec, PackedBlockTile
        )
        bad = np.zeros((40, N_ELECTRODES), dtype=np.int64)
        bad[3, 1] = 16
        with pytest.raises(ValueError, match="out of range"):
            encoder.feed(bad, BlockTiles())
        with pytest.raises(ValueError, match="out of range"):
            encoder.feed(-1 - np.zeros((40, N_ELECTRODES), dtype=np.int64))


class TestPeakMemory:
    #: tracemalloc peaks (MB) of ``encode_all`` over 32 blocks on the
    #: per-block record buffer this slab flush replaced.
    PREVIOUS_PEAK_MB = {(32, 10_000): 3.23, (16, 2_000): 0.94,
                        (1024, 1_000): 0.91}

    @pytest.mark.parametrize("shape", sorted(PREVIOUS_PEAK_MB))
    def test_encode_all_peak_within_a_megabyte(self, shape):
        n_electrodes, dim = shape
        spec = WindowSpec(256, 128)
        encoder = WindowBundler(
            PackedSpatialEncoder(ItemMemory(64, dim, seed=1),
                                 ItemMemory(n_electrodes, dim, seed=2)),
            spec, PackedBlockTile,
        )
        codes = np.random.default_rng(0).integers(
            0, 64, (32 * spec.step_samples, n_electrodes))
        gc.collect()
        tracemalloc.start()
        try:
            encoder.encode_all(codes)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / 1e6 <= self.PREVIOUS_PEAK_MB[shape] + 1.0, (
            f"peak {peak / 1e6:.2f} MB"
        )
