"""Tests for the shared bound-table arena of repro.hdc.spatial_packed.

Every packed spatial encoder of one item-memory key reads one table,
tables of one shape are slots of one arena, and a grouped
``encode_packed(codes, bases)`` call gathers each record from its
own slot.  Run on both packed encoders: numpy's and the native one
(its pure-Python kernel twins here, the compiled kernels in the
``native-engine`` CI job).
"""

import gc
import sys
import threading

import numpy as np
import pytest

from repro.hdc import native, spatial_packed
from repro.hdc.backend import pack_bits, packed_words
from repro.hdc.item_memory import ItemMemory
from repro.hdc.native import NativeSpatialEncoder
from repro.hdc.spatial import SpatialEncoder
from repro.hdc.spatial_packed import PackedSpatialEncoder

ENCODERS = (PackedSpatialEncoder, NativeSpatialEncoder)


def _memories(n_electrodes: int, dim: int, seed: int, n_codes: int = 16):
    return ItemMemory(n_codes, dim, seed=1), ItemMemory(n_electrodes, dim, seed)


def _slot_rows(encoder) -> np.ndarray:
    flat, base = encoder._rows()
    return flat[base : base + encoder.n_electrodes * encoder.n_codes]


def _expected(memories, codes: np.ndarray) -> np.ndarray:
    return pack_bits(SpatialEncoder(*memories).encode(codes))


def _grow(encoder, n_electrodes: int, dim: int) -> list:
    """New encoders of ``encoder``'s shape, until its arena has grown."""
    arena, size, grown = encoder._slot.arena, len(encoder._rows()[0]), []
    while len(arena.rows) == size:
        grown.append(PackedSpatialEncoder(
            *_memories(n_electrodes, dim, seed=1000 + len(grown))))
    return grown


class TestSharing:
    def test_equal_keys_share_one_slot(self):
        a = PackedSpatialEncoder(*_memories(5, 200, seed=2))
        b = NativeSpatialEncoder(*_memories(5, 200, seed=2))
        c = PackedSpatialEncoder(*_memories(5, 200, seed=3))
        assert a._slot is b._slot and a.base == b.base
        # Another key of the same shape is another slot of one arena.
        assert c._slot.arena is a._slot.arena and c.base != a.base
        assert not _slot_rows(a).flags.writeable

    def test_slot_holds_every_binding(self):
        memories = _memories(4, 130, seed=5)
        encoder = PackedSpatialEncoder(*memories)
        code_memory, electrode_memory = memories
        table = (pack_bits(electrode_memory.vectors)[:, None, :]
                 ^ pack_bits(code_memory.vectors)[None, :, :])
        np.testing.assert_array_equal(
            _slot_rows(encoder), table.reshape(-1, encoder.words)
        )

    def test_growth_keeps_the_held_array_exact(self, rng):
        # A shape no other test uses, so this test owns its arena.
        memories = _memories(3, 190, seed=10)
        encoder = PackedSpatialEncoder(*memories)
        held, base = encoder._rows()
        before = held[base : base + 48].copy()
        others = _grow(encoder, 3, 190)
        grown, _ = encoder._rows()
        assert len(grown) == 2 * len(held)
        np.testing.assert_array_equal(held[base : base + 48], before)
        np.testing.assert_array_equal(grown[base : base + 48], before)
        codes = rng.integers(0, 16, (40, 3))
        for other in others:
            assert other._slot.arena is encoder._slot.arena
        np.testing.assert_array_equal(
            encoder.encode_packed(codes), _expected(memories, codes)
        )

    @pytest.mark.parametrize("encoder_class", ENCODERS)
    def test_growth_during_an_encode_stays_exact(self, encoder_class, rng,
                                                 monkeypatch):
        # The arena grows while an encode is gathering from it: the
        # encode keeps the array it read and its records stay exact.
        memories = _memories(7, 150, seed=20)
        encoder = encoder_class(*memories)
        codes = rng.integers(0, 16, (50, 7))
        grown = []
        add = np.add

        def add_and_grow(*args, **kwargs):
            if not grown:
                grown.append(None)
                grown.extend(_grow(encoder, 7, 150))
            return add(*args, **kwargs)

        held, _ = encoder._rows()
        monkeypatch.setattr(np, "add", add_and_grow)
        records = encoder.encode_packed(codes)
        monkeypatch.undo()
        assert grown and len(encoder._rows()[0]) > len(held)
        np.testing.assert_array_equal(records, _expected(memories, codes))

    def test_collected_slot_is_reused(self):
        # A shape no other test uses, so its free list is this test's.
        encoder = PackedSpatialEncoder(*_memories(6, 170, seed=30))
        base = encoder.base
        del encoder
        gc.collect()
        memories = _memories(6, 170, seed=31)
        reused = PackedSpatialEncoder(*memories)
        assert reused.base == base
        codes = np.arange(6 * 9).reshape(9, 6) % 16
        np.testing.assert_array_equal(
            reused.encode_packed(codes), _expected(memories, codes)
        )


    def test_threads_building_and_dropping_encoders_stay_exact(self):
        # More threads than cores build, encode with and drop encoders
        # of one shape while the arena grows and reuses slots; a table
        # written over a live slot would break some thread's records.
        seeds = range(50, 58)
        memories = {seed: _memories(9, 140, seed) for seed in seeds}
        codes = np.random.default_rng(0).integers(0, 16, (30, 9))
        expected = {seed: _expected(m, codes) for seed, m in memories.items()}
        failures = []

        def work(index):
            rng = np.random.default_rng(index)
            kept = []
            for _ in range(60):
                seed = int(rng.choice(seeds))
                encoder = ENCODERS[index % 2](*memories[seed])
                if not np.array_equal(encoder.encode_packed(codes),
                                      expected[seed]):
                    failures.append(seed)
                kept.append(encoder)
                if len(kept) > 3:
                    kept.pop(int(rng.integers(0, len(kept))))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=work, args=(i,))
                       for i in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []


def _arena_of(n_electrodes: int, dim: int, n_codes: int = 16):
    return spatial_packed._ARENAS.get(
        (n_electrodes, n_codes, packed_words(dim)))


class TestRelease:
    """Collected tables give their memory back; live slots stay put.
    Each test uses an alphabet size no other test uses, so it owns the
    arena of its shape."""

    def test_lowest_free_slot_is_reused(self):
        encoders = [PackedSpatialEncoder(*_memories(2, 110, 60 + i, 13))
                    for i in range(5)]
        bases = [e.base for e in encoders]
        del encoders[3], encoders[1]
        gc.collect()
        memories = _memories(2, 110, 70, 13)
        reused = PackedSpatialEncoder(*memories)
        assert reused.base == bases[1]
        second = PackedSpatialEncoder(*_memories(2, 110, 71, 13))
        assert second.base == bases[3]
        codes = np.arange(2 * 9).reshape(9, 2) % 13
        np.testing.assert_array_equal(
            reused.encode_packed(codes), _expected(memories, codes)
        )

    def test_free_tail_is_trimmed_and_live_slots_stay(self):
        memories = [_memories(2, 120, 80 + i, 11) for i in range(8)]
        encoders = [PackedSpatialEncoder(*m) for m in memories]
        arena = _arena_of(2, 120, 11)
        slot_rows = arena.slot_rows
        assert len(arena.rows) == 8 * slot_rows
        codes = np.arange(2 * 9).reshape(9, 2) % 11
        # Slot 6 stays live: slot 7 is trimmed, nothing is given back
        # below it (fragmentation), and slot 6 keeps its base.
        first, kept = encoders[0], encoders[6]
        base = kept.base
        del encoders
        gc.collect()
        assert arena.n_slots == 7 and len(arena.rows) == 8 * slot_rows
        assert kept.base == base
        np.testing.assert_array_equal(
            kept.encode_packed(codes), _expected(memories[6], codes)
        )
        # Slot 0 alone below a free tail: the array shrinks to it.
        del kept
        gc.collect()
        assert arena.n_slots == 1 and len(arena.rows) == slot_rows
        np.testing.assert_array_equal(
            first.encode_packed(codes), _expected(memories[0], codes)
        )

    def test_shrinking_keeps_a_held_array_exact(self):
        memories = [_memories(2, 125, 90 + i, 9) for i in range(5)]
        encoders = [PackedSpatialEncoder(*m) for m in memories]
        held, base = encoders[0]._rows()
        before = held[base : base + 18].copy()
        del encoders[1:]
        gc.collect()
        assert len(encoders[0]._rows()[0]) < len(held)
        np.testing.assert_array_equal(held[base : base + 18], before)
        codes = np.arange(2 * 9).reshape(9, 2) % 9
        np.testing.assert_array_equal(
            encoders[0].encode_packed(codes), _expected(memories[0], codes)
        )

    def test_arena_goes_with_its_last_slot(self):
        encoders = [PackedSpatialEncoder(*_memories(2, 105, 100 + i, 7))
                    for i in range(3)]
        assert _arena_of(2, 105, 7) is encoders[0]._slot.arena
        del encoders
        gc.collect()
        assert _arena_of(2, 105, 7) is None
        # A new table of the shape starts a new arena at slot 0.
        encoder = PackedSpatialEncoder(*_memories(2, 105, 110, 7))
        assert encoder.base == 0 and len(encoder._rows()[0]) == 2 * 7

    def test_release_inside_a_locked_build_waits_for_the_lock(self):
        # A finalizer that runs while this thread holds the lock (say,
        # a collection inside a table build) queues its slot, and the
        # next build frees it.
        encoder = PackedSpatialEncoder(*_memories(2, 100, 120, 5))
        arena = encoder._slot.arena
        with spatial_packed._LOCK:
            del encoder
            gc.collect()
            assert spatial_packed._RELEASED and arena.n_slots == 1
        PackedSpatialEncoder(*_memories(2, 100, 121, 5))
        assert not spatial_packed._RELEASED
        assert _arena_of(2, 100, 5) is not arena


class TestGroupedCall:
    @pytest.mark.parametrize("encoder_class", ENCODERS)
    @pytest.mark.parametrize("tile", [None, 1, 7])
    def test_records_gather_from_their_own_tables(self, encoder_class, tile,
                                                  rng, monkeypatch):
        # ``tile`` records per spatial tile, through either encoder's
        # budget (None: one tile holds the batch).
        memories = [_memories(5, 300, seed=40 + i) for i in range(3)]
        encoders = [encoder_class(*m) for m in memories]
        words = encoders[0].words
        if tile:
            monkeypatch.setattr(spatial_packed, "_PLANE_WORDS", tile * words)
            monkeypatch.setattr(native, "_TILE_WORDS", tile * 5 * words)
        codes = rng.integers(0, 16, (60, 5))
        owner = rng.integers(0, 3, 60)
        bases = np.array([encoders[o].base for o in owner])
        # Any encoder of the shape can run the call.
        out = encoders[2].encode_packed(codes, bases)
        for i, m in enumerate(memories):
            mine = owner == i
            np.testing.assert_array_equal(
                out[mine], _expected(m, codes[mine]), err_msg=f"table {i}"
            )

    @pytest.mark.parametrize("encoder_class", ENCODERS)
    def test_bases_are_range_checked(self, encoder_class):
        encoder = encoder_class(*_memories(5, 300, seed=40))
        flat, _ = encoder._rows()
        codes = np.zeros((4, 5), dtype=np.int64)
        last = len(flat) - 5 * 16
        for bad in ([0, 0, 0, last + 1], [0, -1, 0, 0], [0, 0, 0],
                    [0.0, 0.0, 0.0, 0.0]):
            with pytest.raises(ValueError):
                encoder.encode_packed(codes, bases=np.array(bad))
        # The last slot's base is in range.
        encoder.encode_packed(codes, bases=np.full(4, last))

    def test_take_never_clips(self, rng, monkeypatch):
        # Every index the gathers see lies inside the arena, so
        # ``mode="clip"`` is only the buffer-free form of ``raise``.
        encoders = [PackedSpatialEncoder(*_memories(5, 300, seed=40 + i))
                    for i in range(3)]
        flat, _ = encoders[0]._rows()
        seen = []
        take = np.take

        def checked_take(array, indices, *args, **kwargs):
            seen.append((np.min(indices), np.max(indices)))
            return take(array, indices, *args, **kwargs)

        monkeypatch.setattr(spatial_packed.np, "take", checked_take)
        codes = np.full((20, 5), 15)
        bases = np.array([e.base for e in encoders] * 7)[:20]
        encoders[0].encode_packed(codes, bases=bases)
        monkeypatch.undo()
        assert seen and min(lo for lo, _ in seen) >= 0
        assert max(hi for _, hi in seen) < len(flat)
