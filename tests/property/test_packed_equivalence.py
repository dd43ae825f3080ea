"""Property tests: the packed domain is bit-exact against the unpacked.

Every packed-domain operation (permutation, carry-save counting, the
spatial/temporal encoders, prototype training, associative-memory
queries) must agree with its unpacked reference on arbitrary inputs —
in particular across *odd* dimensions where the top word carries
padding bits.
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hdc import spatial_packed
from repro.hdc.associative import (
    AssociativeMemory,
    PackedPrototypeAccumulator,
)
from repro.hdc.backend import (
    hamming_distance,
    pack_bits,
    packed_words,
    permute_packed,
    unpack_bits,
)
from repro.hdc.bitsliced import (
    bitsliced_counts,
    planes_add,
    planes_greater_than,
    planes_to_counts,
)
from repro.hdc.item_memory import ItemMemory
from repro.hdc.native import NativeSpatialEncoder
from repro.hdc.ops import BundleAccumulator
from repro.hdc.spatial import SpatialEncoder
from repro.hdc.spatial_packed import PackedSpatialEncoder
from repro.hdc.temporal import TemporalEncoder
from repro.hdc.temporal_packed import PackedTemporalEncoder
from repro.signal.windows import WindowSpec

#: Dimensions straddling word boundaries: d % 64 in {1, 63, 0, ...}.
ODD_DIMS = st.sampled_from([1, 2, 63, 64, 65, 100, 127, 128, 129, 200])


def _bits(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.integers(0, 2, size=shape, dtype=np.uint8)


class TestPackingRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(ODD_DIMS, st.integers(1, 8), st.integers(0, 2**32 - 1))
    def test_round_trip_batch(self, dim, rows, seed):
        bits = _bits(np.random.default_rng(seed), (rows, dim))
        packed = pack_bits(bits)
        assert packed.shape == (rows, packed_words(dim))
        np.testing.assert_array_equal(unpack_bits(packed, dim), bits)

    @settings(max_examples=60, deadline=None)
    @given(ODD_DIMS, st.integers(0, 2**32 - 1))
    def test_padding_bits_stay_zero(self, dim, seed):
        packed = pack_bits(_bits(np.random.default_rng(seed), dim))
        tail = dim % 64
        if tail:
            assert int(packed[-1]) >> tail == 0


class TestPackedPermutation:
    @settings(max_examples=80, deadline=None)
    @given(ODD_DIMS, st.integers(-300, 300), st.integers(0, 2**32 - 1))
    def test_matches_roll(self, dim, shift, seed):
        bits = _bits(np.random.default_rng(seed), dim)
        rolled = unpack_bits(permute_packed(pack_bits(bits), dim, shift), dim)
        np.testing.assert_array_equal(rolled, np.roll(bits, shift))

    @settings(max_examples=40, deadline=None)
    @given(ODD_DIMS, st.integers(-300, 300), st.integers(0, 2**32 - 1))
    def test_inverse(self, dim, shift, seed):
        packed = pack_bits(_bits(np.random.default_rng(seed), dim))
        back = permute_packed(permute_packed(packed, dim, shift), dim, -shift)
        np.testing.assert_array_equal(back, packed)


class TestBitslicedCounting:
    @settings(max_examples=60, deadline=None)
    @given(ODD_DIMS, st.integers(1, 20), st.integers(0, 2**32 - 1))
    def test_counts_decode(self, dim, k, seed):
        bits = _bits(np.random.default_rng(seed), (k, dim))
        planes = bitsliced_counts(pack_bits(bits))
        np.testing.assert_array_equal(
            planes_to_counts(planes, dim), bits.sum(axis=0)
        )

    @settings(max_examples=40, deadline=None)
    @given(ODD_DIMS, st.integers(1, 12), st.integers(1, 12),
           st.integers(0, 2**32 - 1))
    def test_planes_add(self, dim, k1, k2, seed):
        rng = np.random.default_rng(seed)
        a = _bits(rng, (k1, dim))
        b = _bits(rng, (k2, dim))
        total = planes_add(
            bitsliced_counts(pack_bits(a)), bitsliced_counts(pack_bits(b))
        )
        np.testing.assert_array_equal(
            planes_to_counts(total, dim), a.sum(axis=0) + b.sum(axis=0)
        )

    @settings(max_examples=60, deadline=None)
    @given(ODD_DIMS, st.integers(1, 20), st.integers(-1, 25),
           st.integers(0, 2**32 - 1))
    def test_threshold_comparator(self, dim, k, threshold, seed):
        bits = _bits(np.random.default_rng(seed), (k, dim))
        mask = planes_greater_than(bitsliced_counts(pack_bits(bits)), threshold)
        np.testing.assert_array_equal(
            unpack_bits(mask, dim),
            (bits.sum(axis=0) > threshold).astype(np.uint8),
        )


class TestEncoderEquivalence:
    @settings(max_examples=25, deadline=None)
    @given(ODD_DIMS, st.integers(2, 9), st.integers(1, 40),
           st.integers(0, 2**32 - 1))
    def test_spatial(self, dim, n_electrodes, n_samples, seed):
        code_memory = ItemMemory(8, dim, seed=3)
        electrode_memory = ItemMemory(n_electrodes, dim, seed=4)
        unpacked = SpatialEncoder(code_memory, electrode_memory)
        packed = PackedSpatialEncoder(code_memory, electrode_memory)
        codes = np.random.default_rng(seed).integers(
            0, 8, (n_samples, n_electrodes)
        )
        np.testing.assert_array_equal(
            unpack_bits(packed.encode_packed(codes), dim),
            unpacked.encode(codes),
        )

    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from([1, 2, 3, 4, 7, 32]),
        st.sampled_from([1, 63, 64, 65, 200]),
        st.sampled_from([0, 1, 2, 3]),
        st.integers(1, 4),
        st.integers(-1, 1),
        st.integers(0, 2**32 - 1),
    )
    def test_spatial_across_tile_edges(
        self, n_electrodes, dim, tile, n_tiles, offset, seed
    ):
        # A budget of ``tile`` samples' masks, or (tile 0) one word less
        # than one sample's, which must still advance one sample a tile;
        # the batch ends one sample before, on or after a tile edge.
        sample_words = n_electrodes * packed_words(dim)
        budget = tile * sample_words if tile else sample_words - 1
        n_samples = max(1, max(tile, 1) * n_tiles + offset)
        code_memory = ItemMemory(16, dim, seed=3)
        electrode_memory = ItemMemory(n_electrodes, dim, seed=4)
        codes = np.random.default_rng(seed).integers(
            0, 16, (n_samples, n_electrodes)
        )
        expected = SpatialEncoder(code_memory, electrode_memory).encode(codes)
        with mock.patch.object(spatial_packed, "_TILE_WORDS", budget):
            for encoder_cls in (PackedSpatialEncoder, NativeSpatialEncoder):
                encoder = encoder_cls(code_memory, electrode_memory)
                np.testing.assert_array_equal(
                    unpack_bits(encoder.encode_packed(codes), dim), expected
                )

    @settings(max_examples=15, deadline=None)
    @given(ODD_DIMS, st.integers(0, 2**32 - 1))
    def test_temporal(self, dim, seed):
        code_memory = ItemMemory(8, dim, seed=3)
        electrode_memory = ItemMemory(4, dim, seed=4)
        spec = WindowSpec.from_seconds(1.0, 0.5, 16.0)
        codes = np.random.default_rng(seed).integers(0, 8, (100, 4))
        h_unpacked = TemporalEncoder(
            SpatialEncoder(code_memory, electrode_memory), spec
        ).encode_all(codes)
        h_packed = PackedTemporalEncoder(
            PackedSpatialEncoder(code_memory, electrode_memory), spec
        ).encode_all(codes)
        np.testing.assert_array_equal(unpack_bits(h_packed, dim), h_unpacked)


class TestAssociativeEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(ODD_DIMS, st.integers(1, 10), st.integers(1, 12),
           st.integers(0, 2**32 - 1))
    def test_prototypes_and_distances(self, dim, k_train, k_query, seed):
        rng = np.random.default_rng(seed)
        train = _bits(rng, (k_train, dim))
        other = _bits(rng, (k_train, dim))
        queries = _bits(rng, (k_query, dim))

        protos = np.stack([
            BundleAccumulator(dim).add(h).finalize() for h in (train, other)
        ])
        packed_memory = AssociativeMemory(dim)
        for label, h in enumerate((train, other)):
            packed_memory.store_packed(
                label,
                PackedPrototypeAccumulator(dim).add(pack_bits(h)).finalize(),
            )

        np.testing.assert_array_equal(
            np.stack([packed_memory.prototype(0), packed_memory.prototype(1)]),
            protos,
        )
        dists_u = hamming_distance(queries[:, None, :], protos)
        labels_p, dists_p = packed_memory.classify_packed(pack_bits(queries))
        np.testing.assert_array_equal(labels_p, np.argmin(dists_u, axis=1))
        np.testing.assert_array_equal(dists_p, dists_u)

    @settings(max_examples=40, deadline=None)
    @given(ODD_DIMS, st.integers(1, 15), st.integers(0, 2**32 - 1))
    def test_accumulators_agree(self, dim, k, seed):
        vectors = _bits(np.random.default_rng(seed), (k, dim))
        unpacked = BundleAccumulator(dim).add(vectors).finalize()
        packed = (
            PackedPrototypeAccumulator(dim).add(pack_bits(vectors)).finalize()
        )
        np.testing.assert_array_equal(unpack_bits(packed, dim), unpacked)
