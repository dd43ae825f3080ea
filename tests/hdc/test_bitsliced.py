"""Tests for the carry-save counter, the packed spatial encoder and its
per-sample oracle."""

import gc
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hdc.backend import pack_bits, packed_words, random_bits, unpack_bits
from repro.hdc.bitsliced import (
    CarrySaveCounter,
    planes_from_counts,
    planes_greater_than,
    planes_to_counts,
)
from repro.hdc.item_memory import ItemMemory
from repro.hdc.spatial import SpatialEncoder
from repro.hdc.spatial_packed import PackedSpatialEncoder
from tests.hdc.oracle import BitslicedCounter, encode_sample_packed


class TestCarrySaveCounter:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 9), st.sampled_from([1, 63, 64, 65, 130]),
           st.integers(0, 2**32 - 1))
    def test_lsb_first_test_is_the_integer_compare(self, depth, dim, seed):
        # Every threshold, from negative ones to ones at or above
        # 2**depth, on counts that use every digit.
        counts = np.random.default_rng(seed).integers(0, 2**depth, (3, dim))
        counts[0, 0] = 2**depth - 1
        planes = planes_from_counts(counts, dim, depth)
        digits = list(planes)
        padding = dim % 64
        for threshold in range(-2, 2**depth + 2):
            expected = (counts > threshold).astype(np.uint8)
            for given_planes in (planes, digits):
                got = planes_greater_than(given_planes, threshold)
                np.testing.assert_array_equal(
                    unpack_bits(got, dim), expected, err_msg=f"t={threshold}"
                )
            if padding and threshold >= 0:
                assert not (got[:, -1] >> np.uint64(padding)).any()
        out = np.empty((3, planes.shape[-1]), dtype=np.uint64)
        assert planes_greater_than(digits, 0, out=out) is out

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(st.integers(1, 40), st.integers(0, 6)),
                    min_size=1, max_size=6),
           st.sampled_from([1, 64, 65, 200]), st.integers(0, 2**32 - 1))
    def test_bulk_add_is_the_integer_sum(self, adds, dim, seed):
        rng = np.random.default_rng(seed)
        counter = CarrySaveCounter((2, packed_words(dim)))
        total = np.zeros((2, dim), dtype=np.int64)
        for size, digit in adds:
            bits = rng.integers(0, 2, (size, 2, dim), dtype=np.uint8)
            stack = pack_bits(bits)
            before = stack.copy()
            counter.add(stack, digit)
            np.testing.assert_array_equal(stack, before)  # read, not kept
            total += bits.sum(axis=0, dtype=np.int64) << digit
        planes = counter.planes()
        np.testing.assert_array_equal(planes_to_counts(planes, dim), total)
        depth = max(int(total.max()).bit_length(), 1)
        padded = counter.planes(depth + 2)
        assert len(padded) == depth + 2
        np.testing.assert_array_equal(planes_to_counts(padded, dim), total)

    def test_pushes_and_triples_share_the_digits(self, rng):
        dim = 130
        bits = rng.integers(0, 2, (10, 4, dim), dtype=np.uint8)
        masks = pack_bits(bits)
        counter = CarrySaveCounter(masks.shape[1:])
        counter.push_triple(masks[:2].copy(), masks[2].copy())
        for mask in masks[3:7]:
            counter.push(0, mask.copy())
        counter.add(masks[7:])
        np.testing.assert_array_equal(
            planes_to_counts(counter.planes(), dim), bits.sum(axis=0)
        )


class TestBitslicedCounter:
    def test_counts_match_plain_sum(self, rng):
        dim, n = 200, 13
        masks = random_bits((n, dim), rng)
        counter = BitslicedCounter(dim, n)
        for mask in masks:
            counter.add(pack_bits(mask))
        np.testing.assert_array_equal(
            counter.counts(), masks.sum(axis=0, dtype=np.int64)
        )

    def test_greater_than_matches_integer_compare(self, rng):
        dim, n = 130, 9
        masks = random_bits((n, dim), rng)
        counter = BitslicedCounter(dim, n)
        for mask in masks:
            counter.add(pack_bits(mask))
        counts = masks.sum(axis=0, dtype=np.int64)
        for threshold in range(-1, n + 2):
            expected = (counts > threshold).astype(np.uint8)
            got = unpack_bits(counter.greater_than(threshold), dim)
            np.testing.assert_array_equal(got, expected, err_msg=f"t={threshold}")

    def test_capacity_enforced(self, rng):
        counter = BitslicedCounter(64, 2)
        mask = pack_bits(random_bits(64, rng))
        counter.add(mask).add(mask)
        with pytest.raises(ValueError):
            counter.add(mask)

    def test_reset(self, rng):
        counter = BitslicedCounter(64, 4)
        counter.add(pack_bits(random_bits(64, rng)))
        counter.reset()
        assert counter.n_added == 0
        np.testing.assert_array_equal(counter.counts(), 0)

    def test_wrong_mask_shape_raises(self):
        counter = BitslicedCounter(64, 4)
        with pytest.raises(ValueError):
            counter.add(np.zeros(5, dtype=np.uint64))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 64), st.integers(1, 20), st.data())
    def test_property_counts(self, dim, n, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        masks = rng.integers(0, 2, size=(n, dim), dtype=np.uint8)
        counter = BitslicedCounter(dim, n)
        for mask in masks:
            counter.add(pack_bits(mask))
        np.testing.assert_array_equal(
            counter.counts(), masks.sum(axis=0, dtype=np.int64)
        )
        majority = unpack_bits(counter.greater_than(n // 2), dim)
        np.testing.assert_array_equal(
            majority, (masks.sum(axis=0) > n // 2).astype(np.uint8)
        )


class TestPackedSpatialEncoder:
    @pytest.fixture(scope="class")
    def encoders(self):
        codes = ItemMemory(64, 300, seed=1)
        electrodes = ItemMemory(7, 300, seed=2)
        return (
            SpatialEncoder(codes, electrodes),
            PackedSpatialEncoder(codes, electrodes),
        )

    def test_word_exact_equivalence(self, encoders, rng):
        default, packed = encoders
        codes = rng.integers(0, 64, size=(25, 7))
        np.testing.assert_array_equal(
            unpack_bits(packed.encode_packed(codes), 300),
            default.encode(codes),
        )

    def test_single_sample(self, encoders, rng):
        default, packed = encoders
        codes = rng.integers(0, 64, size=7)
        expected = default.encode_sample(codes)
        np.testing.assert_array_equal(
            unpack_bits(encode_sample_packed(packed, codes), 300), expected
        )
        np.testing.assert_array_equal(
            unpack_bits(packed.encode_packed(codes)[0], 300), expected
        )

    def test_even_electrode_tie_convention(self, rng):
        # With an even electrode count the tie-to-zero rule must match.
        codes_im = ItemMemory(16, 256, seed=3)
        elec_im = ItemMemory(8, 256, seed=4)
        default = SpatialEncoder(codes_im, elec_im)
        packed = PackedSpatialEncoder(codes_im, elec_im)
        codes = rng.integers(0, 16, size=(40, 8))
        np.testing.assert_array_equal(
            unpack_bits(packed.encode_packed(codes), 256),
            default.encode(codes),
        )

    def test_rejects_bad_codes(self, encoders):
        _, packed = encoders
        with pytest.raises(ValueError):
            packed.encode_packed(np.full(7, 64))
        with pytest.raises(ValueError):
            packed.encode_packed(np.full((3, 7), -1))
        with pytest.raises(ValueError):
            encode_sample_packed(packed, np.full(7, 64))

    def test_rejects_dim_mismatch(self):
        with pytest.raises(ValueError):
            PackedSpatialEncoder(ItemMemory(4, 64, 1), ItemMemory(4, 128, 2))

    def test_working_set_stays_a_few_planes(self, rng):
        # The streamed counter keeps O(log n_electrodes) (tile, words)
        # planes live; gathering the (n_electrodes, tile, words) masks
        # (4 MiB here) or one (n_electrodes, tile) index array per tile
        # (2 MiB) would break the budget.
        encoder = PackedSpatialEncoder(
            ItemMemory(64, 1000, seed=1), ItemMemory(1024, 1000, seed=2)
        )
        codes = rng.integers(0, 64, size=(256, 1024))
        gc.collect()
        tracemalloc.start()
        try:
            encoder.encode_packed(codes)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2e6, f"peak {peak / 1e6:.2f} MB"
