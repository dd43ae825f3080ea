"""Tests for repro.hdc.ops (bind and bundle)."""

import numpy as np
import pytest

from repro.hdc.backend import hamming_distance, random_bits
from repro.hdc.ops import bind, bundle, majority_from_counts


class TestBind:
    def test_self_inverse(self, rng):
        a = random_bits(256, rng)
        b = random_bits(256, rng)
        np.testing.assert_array_equal(bind(a, bind(a, b)), b)

    def test_commutative(self, rng):
        a, b = random_bits((2, 256), rng)
        np.testing.assert_array_equal(bind(a, b), bind(b, a))

    def test_produces_dissimilar_vector(self, rng):
        a = random_bits(4096, rng)
        b = random_bits(4096, rng)
        bound = bind(a, b)
        assert abs(hamming_distance(bound, a) / 4096 - 0.5) < 0.05
        assert abs(hamming_distance(bound, b) / 4096 - 0.5) < 0.05

    def test_three_way(self, rng):
        a, b, c = random_bits((3, 64), rng)
        np.testing.assert_array_equal(bind(a, b, c), a ^ b ^ c)

    def test_needs_two_vectors(self, rng):
        with pytest.raises(ValueError):
            bind(random_bits(8, rng))

    def test_distance_preserving(self, rng):
        # eta(a xor c, b xor c) == eta(a, b): binding is an isometry.
        a, b, c = random_bits((3, 1024), rng)
        assert hamming_distance(bind(a, c), bind(b, c)) == hamming_distance(a, b)


class TestMajority:
    def test_paper_convention_even_ties_to_zero(self):
        # k = 2, count = 1 -> half the inputs are 0 -> result 0.
        np.testing.assert_array_equal(
            majority_from_counts(np.array([0, 1, 2]), 2), [0, 0, 1]
        )

    def test_odd_majority(self):
        np.testing.assert_array_equal(
            majority_from_counts(np.array([0, 1, 2, 3]), 3), [0, 0, 1, 1]
        )

    def test_rejects_empty_bundle(self):
        with pytest.raises(ValueError):
            majority_from_counts(np.array([0]), 0)


class TestBundle:
    def test_bundle_similar_to_inputs(self, rng):
        vectors = random_bits((5, 4096), rng)
        out = bundle(vectors)
        for vec in vectors:
            # Majority of 5: each input agrees on ~ 1 - C(4,2)/2^4 ... far
            # above chance; just require clearly better than 0.5.
            assert hamming_distance(out, vec) / 4096 < 0.45

    def test_single_vector_identity(self, rng):
        v = random_bits((1, 64), rng)
        np.testing.assert_array_equal(bundle(v), v[0])

    def test_duplicated_majority_wins(self, rng):
        a = random_bits(512, rng)
        b = random_bits(512, rng)
        out = bundle(np.stack([a, a, b]))
        np.testing.assert_array_equal(out, a)

    def test_rejects_non_2d(self, rng):
        with pytest.raises(ValueError):
            bundle(random_bits(16, rng))
