"""Tests for repro.hdc.item_memory."""

import hashlib

import numpy as np
import pytest

from repro.core.persistence import detector_from_payload, detector_payload
from repro.hdc import item_memory
from repro.hdc.item_memory import ItemMemory, bound_table


class TestItemMemory:
    def test_deterministic_given_seed(self):
        a = ItemMemory(8, 256, seed=5)
        b = ItemMemory(8, 256, seed=5)
        np.testing.assert_array_equal(a.vectors, b.vectors)

    def test_different_seeds_differ(self):
        a = ItemMemory(8, 256, seed=5)
        b = ItemMemory(8, 256, seed=6)
        assert not np.array_equal(a.vectors, b.vectors)

    def test_vectors_are_binary(self):
        memory = ItemMemory(16, 128, seed=0)
        assert set(np.unique(memory.vectors)) <= {0, 1}

    def test_vector_lookup(self):
        memory = ItemMemory(4, 64, seed=0)
        np.testing.assert_array_equal(memory.vector(2), memory.vectors[2])

    def test_vector_out_of_range(self):
        memory = ItemMemory(4, 64, seed=0)
        with pytest.raises(IndexError):
            memory.vector(4)

    def test_vectors_read_only(self):
        memory = ItemMemory(4, 64, seed=0)
        with pytest.raises(ValueError):
            memory.vectors[0, 0] = 1

    def test_near_orthogonality(self):
        # Sec. II-B: at d in the thousands atomic vectors are nearly
        # orthogonal — normalised distance concentrates around 0.5.
        memory = ItemMemory(64, 4096, seed=1)
        distances = memory.cross_distances()
        off_diag = distances[~np.eye(64, dtype=bool)]
        assert off_diag.min() > 0.42
        assert off_diag.max() < 0.58
        np.testing.assert_allclose(np.diag(distances), 0.0)

    def test_storage_bits(self):
        assert ItemMemory(64, 1000, seed=0).storage_bits() == 64_000

    def test_packed_shape(self):
        memory = ItemMemory(3, 100, seed=0)
        assert memory.packed().shape == (3, 2)

    @pytest.mark.parametrize("n,d", [(0, 8), (8, 0)])
    def test_rejects_empty(self, n, d):
        with pytest.raises(ValueError):
            ItemMemory(n, d, seed=0)


class TestBoundTable:
    def test_entries_are_xor(self):
        codes = ItemMemory(4, 64, seed=1)
        electrodes = ItemMemory(3, 64, seed=2)
        table = bound_table(codes, electrodes)
        assert table.shape == (3, 4, 64)
        for j in range(3):
            for c in range(4):
                np.testing.assert_array_equal(
                    table[j, c], electrodes.vector(j) ^ codes.vector(c)
                )

    def test_im_size_reduction_property(self):
        # Sec. III-B: binding lets 64 + n vectors represent 64 * n pairs;
        # all pairs must be distinct hypervectors.
        codes = ItemMemory(8, 2048, seed=1)
        electrodes = ItemMemory(4, 2048, seed=2)
        table = bound_table(codes, electrodes).reshape(32, 2048)
        # Pairwise distinct (random 2048-bit vectors never collide).
        unique = np.unique(table, axis=0)
        assert unique.shape[0] == 32

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ValueError):
            bound_table(ItemMemory(4, 64, 0), ItemMemory(4, 128, 0))


class TestVectorsOnFirstUse:
    def test_vectors_are_pinned(self):
        # Drawn on first use, from the seed alone, as they always were.
        memory = ItemMemory(64, 1000, seed=7)
        vectors = memory.vectors
        assert vectors.dtype == np.uint8 and vectors.shape == (64, 1000)
        assert hashlib.sha256(vectors.tobytes()).hexdigest() == (
            "46c64fe47b02eb85e1964a2743c08f468d2baa632113a3c35b3c7d2ed628f867"
        )
        assert memory.vectors is vectors and not vectors.flags.writeable

    def test_second_open_of_a_template_draws_no_vectors(
            self, fitted_detector, monkeypatch):
        payload = {**detector_payload(fitted_detector), "engine": "packed"}
        first = detector_from_payload(payload)
        drawn = []
        random_bits = item_memory.random_bits

        def spy(shape, rng):
            drawn.append(shape)
            return random_bits(shape, rng)

        monkeypatch.setattr(item_memory, "random_bits", spy)
        second = detector_from_payload(payload)
        # The bound table is shared, so neither memory was read.
        assert drawn == []
        assert second.spatial.base == first.spatial.base
        # A memory still draws its vectors when they are asked for.
        second.code_memory.vector(0)
        assert drawn == [(second.code_memory.n_items, second.config.dim)]
