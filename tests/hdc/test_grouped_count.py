"""Tests for the grouped spatial count of repro.hdc.spatial_packed.

A tile whose ``(n, words)`` plane is below the plane budget counts
electrode groups side by side in ``(groups, n, words)`` planes that
share the carry-save counter's plane pool, then adds the groups' digit
planes into one ``(n, words)`` count.  Every case here is checked
against the unpacked reference; the native encoder runs too (its
pure-Python kernel twins here, the compiled kernels in the
``native-engine`` CI job), since it shares ``encode_packed``'s checks.
"""

import numpy as np
import pytest

from repro.hdc import spatial_packed
from repro.hdc.backend import pack_bits
from repro.hdc.bitsliced import CarrySaveCounter
from repro.hdc.item_memory import ItemMemory
from repro.hdc.native import NativeSpatialEncoder
from repro.hdc.spatial import SpatialEncoder
from repro.hdc.spatial_packed import PackedSpatialEncoder

ENCODERS = (PackedSpatialEncoder, NativeSpatialEncoder)
DIM = 130  # three words, the top one mostly padding


def _memories(n_electrodes: int, seed: int):
    return ItemMemory(16, DIM, seed=1), ItemMemory(n_electrodes, DIM, seed)


def _expected(memories, codes: np.ndarray) -> np.ndarray:
    return pack_bits(SpatialEncoder(*memories).encode(codes))


class _CounterSpy(CarrySaveCounter):
    """Records the shape of every counter ``encode_packed`` builds."""

    shapes: list = []

    def __init__(self, shape, free=None):
        self.shapes.append(tuple(shape))
        super().__init__(shape, free)


@pytest.fixture()
def counter_shapes(monkeypatch):
    monkeypatch.setattr(_CounterSpy, "shapes", [])
    monkeypatch.setattr(spatial_packed, "CarrySaveCounter", _CounterSpy)
    return _CounterSpy.shapes


def _groups(shapes) -> list[int]:
    """The group count of every grouped (3-D) counter, in order."""
    return [shape[0] for shape in shapes if len(shape) == 3]


class TestGroupedCount:
    @pytest.mark.parametrize("encoder_class", ENCODERS)
    @pytest.mark.parametrize("n_electrodes", [1, 3, 16, 77, 300])
    def test_uneven_groups_match_the_reference(self, encoder_class,
                                               n_electrodes, rng):
        # 77 and 300 electrodes split into 2 and 8 groups with
        # electrodes left over: the missing groups' planes add zeros.
        memories = _memories(n_electrodes, seed=2)
        codes = rng.integers(0, 16, (9, n_electrodes))
        np.testing.assert_array_equal(
            encoder_class(*memories).encode_packed(codes),
            _expected(memories, codes),
        )

    def test_group_counts_at_these_shapes(self, counter_shapes, rng):
        for n_electrodes, groups in ((1, 1), (3, 1), (16, 1), (77, 2),
                                     (300, 8)):
            counter_shapes.clear()
            encoder = PackedSpatialEncoder(*_memories(n_electrodes, seed=2))
            encoder.encode_packed(rng.integers(0, 16, (9, n_electrodes)))
            assert _groups(counter_shapes) == [groups], n_electrodes

    @pytest.mark.parametrize("encoder_class", ENCODERS)
    @pytest.mark.parametrize("n_samples", [20, 25, 41])
    def test_short_last_tile_regroups_from_the_pool(
            self, encoder_class, n_samples, counter_shapes, rng,
            monkeypatch):
        # A 60-word budget makes 20-record tiles of one group each; a
        # short last tile of 5 records or of 1 counts 2 groups, in
        # planes from the pool the full tiles filled.
        monkeypatch.setattr(spatial_packed, "_PLANE_WORDS", 60)
        memories = _memories(77, seed=3)
        codes = rng.integers(0, 16, (n_samples, 77))
        out = encoder_class(*memories).encode_packed(codes)
        np.testing.assert_array_equal(out, _expected(memories, codes))
        if encoder_class is PackedSpatialEncoder:
            assert _groups(counter_shapes) == {
                20: [1], 25: [1, 2], 41: [1, 1, 2]}[n_samples]

    @pytest.mark.parametrize("encoder_class", ENCODERS)
    def test_per_record_bases(self, encoder_class, rng, monkeypatch):
        # Records of three tables in one call, across tiles of 1 and 2
        # groups: each gathers from its own table in every group.
        monkeypatch.setattr(spatial_packed, "_PLANE_WORDS", 60)
        memories = [_memories(77, seed=10 + i) for i in range(3)]
        encoders = [encoder_class(*m) for m in memories]
        codes = rng.integers(0, 16, (45, 77))
        owner = rng.integers(0, 3, 45)
        bases = np.array([encoders[o].base for o in owner])
        out = encoders[0].encode_packed(codes, bases)
        for i, m in enumerate(memories):
            mine = owner == i
            np.testing.assert_array_equal(
                out[mine], _expected(m, codes[mine]), err_msg=f"table {i}"
            )

    @pytest.mark.parametrize("shape", [(16, 2000, [1, 238, 256]),
                                       (32, 10_000, [1, 78, 256])])
    def test_paper_and_serving_shapes_count_one_group(self, shape,
                                                      counter_shapes, rng):
        # serve-fleet (16 ch, d = 2000) and offline-paper (32 ch,
        # d = 10000) have too few electrodes to split: every tile is
        # today's one-group count.
        n_electrodes, dim, batches = shape
        encoder = PackedSpatialEncoder(ItemMemory(64, dim, seed=1),
                                       ItemMemory(n_electrodes, dim, seed=2))
        for n in batches:
            encoder.encode_packed(rng.integers(0, 64, (n, n_electrodes)))
        assert counter_shapes and set(_groups(counter_shapes)) == {1}

    def test_wide_electrode_stream_chunk_counts_two_groups(self):
        # offline-highchan's streamed chunk: 256 records of 16 words
        # fill a third of the budget, so two groups of 512 electrodes.
        encoder = PackedSpatialEncoder(ItemMemory(64, 1000, seed=1),
                                       ItemMemory(1024, 1000, seed=2))
        assert encoder._tiling(256)[0] == 2


class TestPlanePool:
    def test_pooled_planes_take_the_asked_shape(self):
        free = [np.empty((2, 3, 4), dtype=np.uint64)]
        plane = CarrySaveCounter((3, 5), free).plane()
        assert plane.shape == (3, 5) and not free
        assert plane.flags.c_contiguous and plane.flags.writeable

    def test_too_small_pooled_planes_are_dropped(self):
        small = np.empty((2, 2), dtype=np.uint64)
        free = [small]
        plane = CarrySaveCounter((3, 5), free).plane()
        assert plane.shape == (3, 5) and not free
        assert not np.shares_memory(plane, small)

    def test_regrouped_pool_counts_exactly(self, rng):
        # One pool through counters of (2, 4, 3), (4, 3) and (3, 2, 3):
        # every count is the plain sum of its masks.
        free: list[np.ndarray] = []
        for shape in ((2, 4, 3), (4, 3), (3, 2, 3), (2, 4, 3)):
            masks = rng.integers(0, 2**63, (13, *shape), dtype=np.uint64)
            counter = CarrySaveCounter(shape, free)
            for mask in masks:
                plane = counter.plane()
                np.copyto(plane, mask)
                counter.push(0, plane)
            planes = counter.planes()
            bits = np.unpackbits(masks.view(np.uint8), axis=-1)
            count = sum(np.unpackbits(p.view(np.uint8), axis=-1).astype(int)
                        << j for j, p in enumerate(planes))
            np.testing.assert_array_equal(count, bits.sum(axis=0))
            free.extend(planes)
