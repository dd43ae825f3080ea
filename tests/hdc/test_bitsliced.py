"""Tests for the packed spatial encoder and its per-sample oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hdc.backend import pack_bits, random_bits, unpack_bits
from repro.hdc.item_memory import ItemMemory
from repro.hdc.spatial import SpatialEncoder
from repro.hdc.spatial_packed import PackedSpatialEncoder
from tests.hdc.oracle import BitslicedCounter, encode_sample_packed


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
            packed.encode(codes), default.encode(codes)
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
            packed.encode(codes), default.encode(codes)
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
