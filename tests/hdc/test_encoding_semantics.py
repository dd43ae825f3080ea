"""Semantic tests of the HD encoding: what H vectors *mean*.

These tests pin down the representational claims of Sec. III-B — the
properties the detector's accuracy rests on — rather than mechanical
input/output contracts.
"""

import numpy as np
import pytest

from repro.hdc.backend import hamming_distance, unpack_bits
from repro.hdc.item_memory import ItemMemory
from repro.hdc.spatial import SpatialEncoder
from repro.hdc.temporal import CountBlockTile, WindowBundler
from repro.signal.windows import WindowSpec

DIM = 2_048


def _encode(codes, spatial, spec):
    encoder = WindowBundler(spatial, spec, CountBlockTile)
    return unpack_bits(encoder.encode_all(codes), DIM)


@pytest.fixture(scope="module")
def encoder():
    return SpatialEncoder(
        ItemMemory(64, DIM, seed=11), ItemMemory(16, DIM, seed=12)
    )


def _random_codes(rng, n_samples):
    return rng.integers(0, 64, size=(n_samples, 16))


class TestHistogramSemantics:
    """H approximates the LBP-code histogram (Sec. III-B)."""

    def test_same_code_distribution_similar_h(self, encoder, rng):
        # Two windows with i.i.d. codes from the same distribution get
        # similar H vectors even though every sample differs.
        spec = WindowSpec(64, 64)
        h1 = _encode(_random_codes(rng, 64), encoder, spec)[0]
        h2 = _encode(_random_codes(rng, 64), encoder, spec)[0]
        assert hamming_distance(h1, h2) < 0.35 * DIM

    def test_dominant_code_shifts_h(self, encoder, rng):
        # A window dominated by one code is far from a uniform window
        # and close to another window dominated by the *same* code.
        spec = WindowSpec(64, 64)
        dominant = np.full((64, 16), 42)
        noise_a = _random_codes(rng, 64)
        noise_b = _random_codes(rng, 64)
        mixed_a = np.where(rng.random((64, 16)) < 0.8, dominant, noise_a)
        mixed_b = np.where(rng.random((64, 16)) < 0.8, dominant, noise_b)
        uniform = _random_codes(rng, 64)
        h_a = _encode(mixed_a, encoder, spec)[0]
        h_b = _encode(mixed_b, encoder, spec)[0]
        h_u = _encode(uniform, encoder, spec)[0]
        assert hamming_distance(h_a, h_b) < hamming_distance(h_a, h_u)

    def test_different_dominant_codes_differ(self, encoder):
        spec = WindowSpec(64, 64)
        h_42 = _encode(np.full((64, 16), 42), encoder, spec)[0]
        h_17 = _encode(np.full((64, 16), 17), encoder, spec)[0]
        assert hamming_distance(h_42, h_17) > 0.35 * DIM


class TestElectrodeBindingSemantics:
    """The spatial record keeps *which electrode* showed a code."""

    def test_focal_pattern_location_matters(self, encoder, rng):
        # The same dominant code on electrodes 0-7 vs 8-15 must produce
        # different records (binding makes the representation a record,
        # not a bag).
        base = _random_codes(rng, 1)[0]
        left = base.copy()
        left[:8] = 42
        right = base.copy()
        right[8:] = 42
        s_left = encoder.encode_sample(left)
        s_right = encoder.encode_sample(right)
        assert hamming_distance(s_left, s_right) > 0.2 * DIM

    def test_partial_overlap_graded_similarity(self, encoder, rng):
        # More shared (electrode, code) pairs -> closer records.
        base = _random_codes(rng, 1)[0]
        variant_1 = base.copy()
        variant_1[:2] = (variant_1[:2] + 1) % 64
        variant_8 = base.copy()
        variant_8[:8] = (variant_8[:8] + 1) % 64
        d1 = hamming_distance(encoder.encode_sample(base),
                              encoder.encode_sample(variant_1))
        d8 = hamming_distance(encoder.encode_sample(base),
                              encoder.encode_sample(variant_8))
        assert d1 < d8

    def test_im_seed_isolation(self):
        # Different master seeds give unrelated encodings — models do
        # not leak into one another.
        a = SpatialEncoder(ItemMemory(64, DIM, 1), ItemMemory(8, DIM, 2))
        b = SpatialEncoder(ItemMemory(64, DIM, 3), ItemMemory(8, DIM, 4))
        codes = np.arange(8) % 64
        d = hamming_distance(a.encode_sample(codes), b.encode_sample(codes))
        assert abs(d / DIM - 0.5) < 0.06
