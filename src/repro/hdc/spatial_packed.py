"""Packed spatial encoder: the Fig. 2 dataflow without unpacking.

Functionally identical to :class:`repro.hdc.spatial.SpatialEncoder` but
on packed uint64 words: per sample it XORs the packed electrode and
code vectors (binding), counts the bound masks in bit-sliced digit
planes and takes the majority with the LSB-first comparator
(:func:`repro.hdc.bitsliced.planes_greater_than`) — the XOR / transpose
/ popcount structure of the paper's GPU encoding kernel restated for
64-bit CPU words, verified word-exact against the unpacked encoder.

Bound tables are shared, as the GPU kernel stages IM1 and IM2 once for
every electrode of a step.  ``ItemMemory`` vectors depend only on
``(n_items, dim, seed)``, so every encoder of one ``(n_codes, code seed,
n_electrodes, electrode seed, dim)`` key reads one read-only packed
table, a slot of the one arena of its shape (:class:`_Arena`), released
when the last encoder holding it is collected.

Batch encoding tiles the samples so one ``(tile, words)`` plane holds
about ``_PLANE_WORDS`` words and every word operation runs on a
cache-resident operand.  Per tile it reads the codes electrode-major, a
plane-sized slice of electrodes at a time, gathers each electrode
triple's bound masks from the arena (a pair with one ``np.take`` into a
reused buffer, the third into a counter plane) and streams them through
the carry-save counter (:class:`repro.hdc.bitsliced.CarrySaveCounter`):
only ``O(log n_electrodes)`` planes are ever live; a tile below the
budget counts electrode groups side by side in ``(groups, n, words)``
planes and sums the groups at the end.  Because every table of a shape
is in one array, a batch may mix encoders: ``bases`` gives each record
its table's first row, so a serving slab of many sessions is one
call (:class:`repro.hdc.temporal_packed.PackedBlockTile`).
"""

from __future__ import annotations

import threading
import weakref

import numpy as np

from repro.hdc.backend import pack_bits, packed_words

# ``bitsliced_counts`` is unused here; the name stays importable from
# this module because perfbench's tracer wraps it here.
from repro.hdc.bitsliced import (
    CarrySaveCounter,
    bitsliced_counts,  # noqa: F401
    planes_greater_than,
)
from repro.hdc.item_memory import ItemMemory

#: Word budget of one ``(tile, words)`` plane (96 KiB): small enough
#: that the dozen planes a tile keeps live stay cached.
_PLANE_WORDS = 12_288


class _Arena:
    """Every bound table of one ``(n_electrodes, n_codes, words)``
    shape: slot ``s`` is rows ``[s * slot_rows, (s + 1) * slot_rows)``
    of :attr:`rows`, the read-only view encoders gather from.

    A live slot never moves, so a base read before a resize still finds
    its table in the new array.  Only a free tail is given back:
    a live slot high in the arena keeps the slots below it."""

    def __init__(self, shape: tuple[int, int, int]) -> None:
        self.shape, self.slot_rows = shape, shape[0] * shape[1]
        self._data = self.rows = np.empty((0, shape[2]), dtype=np.uint64)
        #: Slots up to the highest one in use, and the released ones
        #: below it, reused lowest first.
        self.n_slots, self.free = 0, set()

    def _resize(self, capacity: int) -> None:
        # A new array, swapped in: a running encode keeps the one it read.
        data = np.empty((capacity * self.slot_rows, self.shape[2]),
                        dtype=np.uint64)
        kept = min(len(data), len(self._data))
        data[:kept] = self._data[:kept]
        self._data, self.rows = data, data.view()
        self.rows.setflags(write=False)

    def store(self, table: np.ndarray) -> int:
        """Copy a ``(slot_rows, words)`` table into the lowest free slot
        (growing to twice the capacity if none is free); return the
        slot's first row."""
        if self.free:
            slot = min(self.free)
            self.free.remove(slot)
        else:
            slot, self.n_slots = self.n_slots, self.n_slots + 1
            capacity = len(self._data) // self.slot_rows
            if slot == capacity:
                self._resize(max(1, 2 * capacity))
        base = slot * self.slot_rows
        self._data[base : base + self.slot_rows] = table
        return base

    def release(self, slot: int) -> None:
        """Free ``slot``, trim the free tail, and shrink to the slots in
        use once they fill a quarter of the capacity or less (so a store
        and a release at a capacity edge do not copy back and forth)."""
        self.free.add(slot)
        while self.n_slots - 1 in self.free:
            self.n_slots -= 1
            self.free.remove(self.n_slots)
        if self.n_slots <= len(self._data) // self.slot_rows // 4:
            self._resize(self.n_slots)


class _Slot:
    """One shared bound table: its arena and first row.  Collecting the
    last encoder that holds it releases the slot."""

    def __init__(self, arena: _Arena, base: int) -> None:
        self.arena, self.base = arena, base
        weakref.finalize(self, _released, arena, base // arena.slot_rows)


_LOCK = threading.Lock()
_ARENAS: dict[tuple[int, int, int], _Arena] = {}
_SLOTS: weakref.WeakValueDictionary = weakref.WeakValueDictionary()
#: Released slots not yet freed: ``(arena, slot)``.
_RELEASED: list[tuple[_Arena, int]] = []


def _released(arena: _Arena, slot: int) -> None:
    """A slot's finalizer, which may run inside an allocation under the
    lock: it queues the slot and frees the queue if the lock is free
    (else the next table built does)."""
    _RELEASED.append((arena, slot))
    if _LOCK.acquire(blocking=False):
        try:
            _free_released()
        finally:
            _LOCK.release()


def _free_released() -> None:
    """Free the queued slots (under the lock); an arena whose last slot
    goes is dropped."""
    while _RELEASED:
        arena, slot = _RELEASED.pop()
        arena.release(slot)
        if not arena.n_slots and _ARENAS.get(arena.shape) is arena:
            del _ARENAS[arena.shape]


def _shared_table(code_memory: ItemMemory,
                  electrode_memory: ItemMemory) -> _Slot:
    """The slot holding ``electrode XOR code`` for every pair, packed:
    electrode e's mask for code c is row ``base + e * n_codes + c``."""
    key = (code_memory.n_items, code_memory.seed, electrode_memory.n_items,
           electrode_memory.seed, code_memory.dim)
    with _LOCK:
        _free_released()
        slot = _SLOTS.get(key)
        if slot is None:
            packed_codes = pack_bits(code_memory.vectors)
            packed_electrodes = pack_bits(electrode_memory.vectors)
            table = packed_electrodes[:, None, :] ^ packed_codes[None, :, :]
            shape = table.shape
            arena = _ARENAS.get(shape)
            if arena is None:
                arena = _ARENAS[shape] = _Arena(shape)
            slot = _Slot(arena, arena.store(table.reshape(-1, shape[2])))
            _SLOTS[key] = slot
        _free_released()
        return slot


class PackedSpatialEncoder:
    """Bit-sliced spatial-record encoder (packed in, packed out).

    Args:
        code_memory: IM1 — LBP-code atomic vectors.
        electrode_memory: IM2 — electrode-name atomic vectors.
    """

    def __init__(
        self, code_memory: ItemMemory, electrode_memory: ItemMemory
    ) -> None:
        if code_memory.dim != electrode_memory.dim:
            raise ValueError(
                "item memories must share a dimension, got "
                f"{code_memory.dim} and {electrode_memory.dim}"
            )
        self.dim = code_memory.dim
        self.n_electrodes = electrode_memory.n_items
        self.n_codes = code_memory.n_items
        #: Packed word count per hypervector, ``packed_words(dim)``.
        self.words = packed_words(self.dim)
        # The packed bound table: the software analogue of IM1/IM2
        # staged in shared memory, shared by every encoder of its key.
        self._slot = _shared_table(code_memory, electrode_memory)

    @property
    def base(self) -> int:
        """First row of this encoder's table in its arena (``bases``)."""
        return self._slot.base

    def _checked(self, codes: np.ndarray, bases: np.ndarray | None,
                 checked: bool = False):
        """``(n_samples, n_electrodes)`` codes, validated; the arena
        (read once, so a resize never changes the array under an
        encode); each electrode's first row in it (plus this encoder's
        base when there are no ``bases``); and the records' table bases,
        range-checked against the arena (unless ``checked``)."""
        flat, base = self._rows()
        first_row = np.arange(self.n_electrodes, dtype=np.intp) * self.n_codes
        arr = np.asarray(codes)
        if arr.ndim == 1:
            arr = arr[None, :]
        if arr.ndim != 2 or arr.shape[1] != self.n_electrodes:
            raise ValueError(
                f"expected (n_samples, {self.n_electrodes}), got {arr.shape}"
            )
        if not checked and arr.size and (arr.min() < 0
                                         or arr.max() >= self.n_codes):
            raise ValueError(f"code out of range [0, {self.n_codes})")
        if bases is None:
            return arr, flat, first_row + base, None
        bases = np.asarray(bases)
        if bases.shape != (arr.shape[0],) or bases.dtype.kind not in "iu":
            raise ValueError(
                f"expected ({arr.shape[0]},) integer bases, got "
                f"{bases.shape} {bases.dtype}"
            )
        last = len(flat) - self.n_electrodes * self.n_codes
        if not checked and bases.size and (bases.min() < 0
                                           or bases.max() > last):
            raise ValueError(f"table base out of range [0, {last}]")
        return arr, flat, first_row, bases.astype(np.intp, copy=False)

    def _rows(self) -> tuple[np.ndarray, int]:
        """The arena holding this encoder's table, and the table's
        first row: electrode e's mask for code c is row
        ``base + e * n_codes + c``."""
        slot = self._slot
        return slot.arena.rows, slot.base

    def _tiling(self, n: int) -> tuple[int, int]:
        """Groups a tile of ``n`` records counts side by side (as many as
        fill the plane budget with three electrodes per digit or more,
        rounded down to a power of two) and its span of electrodes."""
        groups = min(_PLANE_WORDS // (n * self.words), self.n_electrodes
                     // (3 * self.n_electrodes.bit_length()))
        groups = 1 << (max(groups, 1).bit_length() - 1)
        span = _PLANE_WORDS // n // (3 * groups) * 3 * groups
        return groups, min(self.n_electrodes, max(3 * groups, span))

    def encode_packed(
        self, codes: np.ndarray, bases: np.ndarray | None = None, *,
        checked: bool = False,
    ) -> np.ndarray:
        """Spatial records for a batch, packed, ``(n_samples, words)``
        (see the module docstring) — no per-sample Python loop.

        ``bases`` gives record i's table as its first row in this
        encoder's arena (another encoder's :attr:`base`, if its tables
        have this one's shape); by default every record uses this
        encoder's table; ``checked`` skips range scans the caller made.
        A batch of one spatial tile returns its lowest digit plane, which
        the comparator overwrites with the records."""
        arr, flat, first_row, bases = self._checked(codes, bases, checked)
        n_samples, n_electrodes = arr.shape
        tile = max(1, min(n_samples, _PLANE_WORDS // self.words))
        out = (None if tile == n_samples
               else np.empty((n_samples, self.words), dtype=np.uint64))
        groups, span = self._tiling(tile)
        threshold = n_electrodes // 2
        free: list[np.ndarray] = []
        index_buffer = np.empty(min(n_electrodes * tile, max(
            _PLANE_WORDS, 3 * groups * tile)), dtype=np.intp)
        pair_buffer = np.empty(2 * groups * tile * self.words, np.uint64)
        for start in range(0, n_samples, tile):
            stop = min(start + tile, n_samples)
            n = stop - start
            if n < tile:  # a short last tile: its buffers fit in these
                groups, span = self._tiling(n)
            shape = (groups, n, self.words)
            counter = CarrySaveCounter(shape, free)
            pair = pair_buffer[: 2 * groups * n * self.words].reshape(2, *shape)
            for e0 in range(0, n_electrodes, span):
                e1 = min(e0 + span, n_electrodes)
                rows = index_buffer[: (e1 - e0) * n].reshape(e1 - e0, n)
                # Codes and bases are range-checked, so the unsafe cast is
                # exact and ``mode="clip"`` never clips; it lets ``take``
                # write into ``out`` without the buffer ``mode="raise"``
                # needs.
                np.add(arr[start:stop, e0:e1].T, first_row[e0:e1, None],
                       out=rows, casting="unsafe")
                if bases is not None:
                    rows += bases[start:stop]
                # Electrode e0 + i * groups + g is group g's in step i.
                whole = (e1 - e0) // (3 * groups) * 3
                steps = rows[: whole * groups].reshape(whole, groups, n)
                for i in range(0, whole, 3):
                    np.take(flat, steps[i:i + 2], axis=0, out=pair,
                            mode="clip")
                    plane = counter.plane()
                    np.take(flat, steps[i + 2], axis=0, out=plane,
                            mode="clip")
                    counter.push_triple(pair, plane)
                # The rest a step at a time; missing groups add zeros.
                for e in range(whole * groups, e1 - e0, groups):
                    plane, part = counter.plane(), rows[e:e + groups]
                    np.take(flat, part, axis=0, out=plane[: len(part)],
                            mode="clip")
                    plane[len(part):] = 0
                    counter.push(0, plane)
            grouped = counter.planes()
            planes = [plane[0] for plane in grouped]
            if groups > 1:  # each group's digit planes, as views, summed
                total = CarrySaveCounter((n, self.words))
                for digit, plane in enumerate(grouped):
                    for part in plane:
                        total.push(digit, part)
                planes = total.planes()
            if out is None:
                return planes_greater_than(planes, threshold, out=planes[0])
            planes_greater_than(planes, threshold, out=out[start:stop])
            free.extend(grouped)
        return out
