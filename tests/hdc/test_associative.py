"""Tests for repro.hdc.associative (prototype learning and queries).

Queries go through the packed sweep; expected distances come from
:func:`repro.hdc.backend.hamming_distance` on the unpacked bits, an
oracle that never packs or popcounts.
"""

import time

import numpy as np
import pytest

from repro.core.config import GOLDEN_DIM
from repro.hdc.associative import (
    AssociativeMemory,
    bundle_packed,
    grouped_classify_packed,
)
from repro.hdc.backend import (
    hamming_distance,
    pack_bits,
    random_bits,
    unpack_bits,
)
from repro.hdc.engine import build_engine
from repro.hdc.item_memory import ItemMemory
from repro.hdc.ops import bundle
from repro.signal.windows import WindowSpec
from tests.conftest import every_engine


def _classify(memory: AssociativeMemory, queries: np.ndarray):
    """Query unpacked bits through the packed sweep."""
    return memory.classify_packed(pack_bits(queries))


def _oracle(protos: np.ndarray, queries: np.ndarray):
    """Brute-force labels/distances: unpacked Hamming distance, argmin."""
    dists = hamming_distance(queries[..., None, :], protos)
    return np.argmin(dists, axis=-1), dists


class TestPrototypeBundling:
    """Every engine's one-shot prototype bundle (``engine.bundle``)."""

    def test_single_vector_prototype_is_vector(self, rng):
        v = pack_bits(random_bits(128, rng))[None]
        for engine in every_engine(128):
            np.testing.assert_array_equal(engine.bundle(v), v[0],
                                          err_msg=engine.name)

    def test_majority_of_noisy_copies_recovers_centre(self, rng):
        centre = random_bits(2048, rng)
        noisy = np.stack([centre.copy() for _ in range(7)])
        for row in noisy:
            flip = rng.choice(2048, size=200, replace=False)
            row[flip] ^= 1
        for engine in every_engine(2048):
            prototype = unpack_bits(engine.bundle(pack_bits(noisy)), 2048)
            assert hamming_distance(prototype, centre) < 100, engine.name

    def test_empty_bundle_raises(self):
        for engine in every_engine(32):
            with pytest.raises(ValueError):
                engine.bundle(np.zeros((0, 1), dtype=np.uint64))


class TestAssociativeMemory:
    def test_store_and_query(self, rng):
        memory = AssociativeMemory(256)
        p0 = random_bits(256, rng)
        p1 = random_bits(256, rng)
        memory.store(0, p0)
        memory.store(1, p1)
        labels, dists = _classify(memory, p1)
        assert labels == 1
        assert dists[1] == 0
        assert dists[0] == hamming_distance(p0, p1)

    def test_batch_classification(self, rng):
        memory = AssociativeMemory(512)
        p0, p1 = random_bits((2, 512), rng)
        memory.store(0, p0)
        memory.store(1, p1)
        queries = np.stack([p0, p1, p0])
        labels, dists = _classify(memory, queries)
        np.testing.assert_array_equal(labels, [0, 1, 0])
        np.testing.assert_array_equal(dists, _oracle(np.stack([p0, p1]),
                                                     queries)[1])

    def test_train_bundles_batch(self, rng):
        h = random_bits((5, 128), rng)
        for backend in ("unpacked", "packed"):
            engine = build_engine(
                backend, ItemMemory(4, 128, seed=1),
                ItemMemory(2, 128, seed=2),
                WindowSpec.from_seconds(1.0, 0.5, 32.0),
            )
            memory = AssociativeMemory(128)
            engine.train(memory, 3, pack_bits(h))
            np.testing.assert_array_equal(memory.prototype(3), bundle(h),
                                          err_msg=backend)

    def test_store_replaces_existing(self, rng):
        memory = AssociativeMemory(64)
        memory.store(0, random_bits(64, rng))
        replacement = random_bits(64, rng)
        memory.store(0, replacement)
        assert memory.n_classes == 1
        np.testing.assert_array_equal(memory.prototype(0), replacement)

    def test_store_leaves_handed_out_blocks_unchanged(self, rng):
        memory = AssociativeMemory(64)
        first = random_bits(64, rng)
        memory.store(0, first)
        block, labels = memory.packed_block()
        memory.store(0, random_bits(64, rng))
        memory.store(1, random_bits(64, rng))
        np.testing.assert_array_equal(block, pack_bits(first)[None])
        assert labels.tolist() == [0]

    def test_tie_resolves_to_first_stored_class(self, rng):
        # Equidistant query must get the first-stored (interictal) label.
        memory = AssociativeMemory(64)
        p0 = np.zeros(64, dtype=np.uint8)
        p1 = np.ones(64, dtype=np.uint8)
        memory.store(0, p0)
        memory.store(1, p1)
        query = np.concatenate([np.zeros(32), np.ones(32)]).astype(np.uint8)
        labels, dists = _classify(memory, query)
        assert dists[0] == dists[1] == 32
        assert labels == 0

    def test_noise_robust_recall(self, rng):
        # Hallmark of HD memories: heavy bit noise still recalls the
        # right prototype at d = 2048.
        memory = AssociativeMemory(2048)
        p0, p1 = random_bits((2, 2048), rng)
        memory.store(0, p0)
        memory.store(1, p1)
        noisy = p0.copy()
        flip = rng.choice(2048, size=600, replace=False)  # ~30 % noise
        noisy[flip] ^= 1
        labels, _ = _classify(memory, noisy)
        assert labels == 0

    def test_unknown_label_raises(self):
        with pytest.raises(KeyError):
            AssociativeMemory(16).prototype(0)

    def test_query_without_prototypes_raises(self, rng):
        with pytest.raises(RuntimeError):
            _classify(AssociativeMemory(16), random_bits(16, rng))

    def test_wrong_shape_prototype_raises(self, rng):
        with pytest.raises(ValueError):
            AssociativeMemory(16).store(0, random_bits(17, rng))

    def test_non_binary_prototype_raises(self):
        with pytest.raises(ValueError):
            AssociativeMemory(4).store(0, np.array([0, 1, 2, 1], dtype=np.uint8))


class TestPackedApi:
    def test_single_packed_vector_prototype_is_vector(self, rng):
        v = pack_bits(random_bits(100, rng))
        np.testing.assert_array_equal(bundle_packed(v[None]), v)

    def test_store_packed_round_trips(self, rng):
        memory = AssociativeMemory(100)
        p = random_bits(100, rng)
        memory.store_packed(0, pack_bits(p))
        np.testing.assert_array_equal(memory.prototype(0), p)
        np.testing.assert_array_equal(
            memory.packed_block()[0], pack_bits(p)[None]
        )

    def test_store_packed_rejects_dirty_padding(self):
        memory = AssociativeMemory(100)
        dirty = np.zeros(2, dtype=np.uint64)
        dirty[-1] = np.uint64(1) << np.uint64(63)  # bit 127 > dim 100
        with pytest.raises(ValueError):
            memory.store_packed(0, dirty)

    def test_store_packed_rejects_wrong_words(self):
        with pytest.raises(ValueError):
            AssociativeMemory(100).store_packed(0, np.zeros(3, dtype=np.uint64))

    def test_classify_packed_matches_unpacked(self, rng):
        memory = AssociativeMemory(300)
        protos = random_bits((2, 300), rng)
        memory.store(0, protos[0])
        memory.store(1, protos[1])
        queries = random_bits((17, 300), rng)
        labels_o, dists_o = _oracle(protos, queries)
        labels_p, dists_p = _classify(memory, queries)
        np.testing.assert_array_equal(labels_p, labels_o)
        np.testing.assert_array_equal(dists_p, dists_o)

    def test_train_packed_matches_train(self, rng):
        # Every engine's bundle agrees with the integer majority.
        h = random_bits((9, 130), rng)
        for engine in every_engine(130):
            np.testing.assert_array_equal(
                unpack_bits(engine.bundle(pack_bits(h)), 130), bundle(h),
                err_msg=engine.name,
            )

    def test_packed_query_without_prototypes_raises(self, rng):
        with pytest.raises(RuntimeError):
            AssociativeMemory(64).classify_packed(
                pack_bits(random_bits(64, rng))
            )

    def test_packed_query_wrong_words_raises(self):
        memory = AssociativeMemory(64)
        memory.store(0, np.zeros(64, dtype=np.uint8))
        with pytest.raises(ValueError):
            memory.classify_packed(np.zeros((2, 3), dtype=np.uint64))


@pytest.mark.slow
def test_grouped_sweep_triples_the_per_session_loop(rng):
    """Serving shape: 16 sessions x 1 window per tick, 256 ticks."""
    n_ticks, n_sessions = 256, 16
    memories = []
    for _ in range(n_sessions):
        memory = AssociativeMemory(GOLDEN_DIM)
        memory.store(0, random_bits(GOLDEN_DIM, rng))
        memory.store(1, random_bits(GOLDEN_DIM, rng))
        memories.append(memory)
    queries = pack_bits(random_bits((n_ticks, n_sessions, GOLDEN_DIM), rng))
    stack = np.stack([m.packed_block()[0] for m in memories])
    table = np.stack([m.packed_block()[1] for m in memories])
    owners = np.arange(n_sessions, dtype=np.intp)

    def per_session_loop():
        return [[m.classify_packed(q)[0] for m, q in zip(memories, tick)]
                for tick in queries]

    def grouped_sweep():
        return [grouped_classify_packed(tick, stack, owners, table)[0]
                for tick in queries]

    def best_of_3(fn):
        times = []
        for _ in range(3):
            start = time.perf_counter()
            fn()
            times.append(time.perf_counter() - start)
        return min(times)

    np.testing.assert_array_equal(per_session_loop(), grouped_sweep())
    loop_s, grouped_s = best_of_3(per_session_loop), best_of_3(grouped_sweep)
    assert loop_s / grouped_s >= 3.0, (loop_s, grouped_s)
