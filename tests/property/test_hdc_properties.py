"""Property-based tests (hypothesis) for the HD computing substrate."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.hdc.backend import (
    hamming_distance,
    hamming_distance_packed,
    pack_bits,
    unpack_bits,
)
from repro.hdc.ops import bind, bundle, majority_from_counts
from tests.conftest import every_engine

DIMS = st.integers(min_value=1, max_value=300)


def bit_arrays(dim: int, rows: int | None = None):
    shape = (dim,) if rows is None else (rows, dim)
    return hnp.arrays(np.uint8, shape, elements=st.integers(0, 1))


@st.composite
def vector_pair(draw):
    dim = draw(DIMS)
    a = draw(bit_arrays(dim))
    b = draw(bit_arrays(dim))
    return a, b


@st.composite
def vector_triple(draw):
    dim = draw(DIMS)
    return tuple(draw(bit_arrays(dim)) for _ in range(3))


@st.composite
def vector_stack(draw):
    dim = draw(st.integers(1, 100))
    rows = draw(st.integers(1, 12))
    return draw(bit_arrays(dim, rows))


class TestPackingProperties:
    @settings(max_examples=60, deadline=None)
    @given(vector_pair())
    def test_round_trip(self, pair):
        a, _ = pair
        np.testing.assert_array_equal(unpack_bits(pack_bits(a), a.size), a)

    @settings(max_examples=60, deadline=None)
    @given(vector_pair())
    def test_packed_hamming_equals_unpacked(self, pair):
        a, b = pair
        assert hamming_distance_packed(
            pack_bits(a), pack_bits(b)
        ) == hamming_distance(a, b)


class TestHammingMetricAxioms:
    @settings(max_examples=60, deadline=None)
    @given(vector_pair())
    def test_symmetry_and_identity(self, pair):
        a, b = pair
        assert hamming_distance(a, b) == hamming_distance(b, a)
        assert hamming_distance(a, a) == 0
        assert 0 <= hamming_distance(a, b) <= a.size

    @settings(max_examples=60, deadline=None)
    @given(vector_triple())
    def test_triangle_inequality(self, triple):
        a, b, c = triple
        assert hamming_distance(a, c) <= (
            hamming_distance(a, b) + hamming_distance(b, c)
        )


class TestBindProperties:
    @settings(max_examples=60, deadline=None)
    @given(vector_triple())
    def test_associative(self, triple):
        a, b, c = triple
        np.testing.assert_array_equal(bind(bind(a, b), c), bind(a, bind(b, c)))

    @settings(max_examples=60, deadline=None)
    @given(vector_pair())
    def test_self_inverse_and_isometry(self, pair):
        a, b = pair
        np.testing.assert_array_equal(bind(a, bind(a, b)), b)
        # Binding with any vector preserves distances.
        c = np.roll(a, 1)
        assert hamming_distance(bind(a, c), bind(b, c)) == hamming_distance(a, b)


class TestBundleProperties:
    @settings(max_examples=60, deadline=None)
    @given(vector_stack())
    def test_order_invariance(self, stack):
        shuffled = stack[::-1].copy()
        np.testing.assert_array_equal(bundle(stack), bundle(shuffled))

    @settings(max_examples=60, deadline=None)
    @given(vector_stack())
    def test_bundle_no_farther_than_majority_bound(self, stack):
        # The bundle is at least as close to each input as to its
        # complement on average: distance <= dim (trivial) and the
        # summed distance over inputs is minimal for the majority vector.
        out = bundle(stack)
        total = sum(int(hamming_distance(out, v)) for v in stack)
        flipped = 1 - out
        total_flipped = sum(int(hamming_distance(flipped, v)) for v in stack)
        assert total <= total_flipped

    @settings(max_examples=60, deadline=None)
    @given(vector_stack())
    def test_every_engine_bundles_like_bundle(self, stack):
        dim = stack.shape[1]
        for engine in every_engine(dim):
            np.testing.assert_array_equal(
                unpack_bits(engine.bundle(pack_bits(stack)), dim),
                bundle(stack), err_msg=engine.name,
            )

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 50), st.integers(0, 50))
    def test_majority_threshold_consistent(self, k, count):
        counts = np.array([min(count, k)])
        bit = majority_from_counts(counts, k)[0]
        assert bit == (1 if counts[0] > k // 2 else 0)


class TestIdempotence:
    @settings(max_examples=40, deadline=None)
    @given(vector_pair())
    def test_bundling_duplicates_returns_vector(self, pair):
        a, _ = pair
        np.testing.assert_array_equal(bundle(np.stack([a, a, a])), a)
