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
table, and the tables of one shape sit as slots of one contiguous
arena (:class:`_Arena`).  The arena doubles its capacity on growth and
swaps the new array in, so an encode that is already running keeps the
array it read; a slot is released when the last encoder holding it is
collected, and the next new table reuses it.

Batch encoding tiles the samples so one ``(tile, words)`` plane holds
about ``_PLANE_WORDS`` words and every word operation runs on a
cache-resident operand.  Per tile it reads the codes electrode-major, a
plane-sized slice of electrodes at a time, gathers each electrode
triple's bound masks with one ``np.take`` from the arena and streams
them through the carry-save counter
(:class:`repro.hdc.bitsliced.CarrySaveCounter`): only
``O(log n_electrodes)`` planes are ever live.  Because every table of a
shape is in one array, a batch may mix encoders: ``bases`` gives each
record its table's first row, so a serving slab of many sessions is one
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
    of :attr:`rows`, the read-only view encoders gather from."""

    def __init__(self, slot_rows: int, words: int) -> None:
        self.slot_rows = slot_rows
        self._data = np.empty((0, words), dtype=np.uint64)
        self.rows = self._data
        #: Released slots, reused before the arena grows.
        self.free: list[int] = []
        self.n_slots = 0

    def store(self, table: np.ndarray) -> int:
        """Copy a ``(slot_rows, words)`` table into a free slot (growing
        into a new array of twice the capacity if none is free); return
        the slot's first row."""
        if self.free:
            slot = self.free.pop()
        else:
            slot, self.n_slots = self.n_slots, self.n_slots + 1
            capacity = len(self._data) // self.slot_rows
            if slot == capacity:
                grown = np.empty((max(1, 2 * capacity) * self.slot_rows,
                                  self._data.shape[1]), dtype=np.uint64)
                grown[: len(self._data)] = self._data
                self._data = grown
        base = slot * self.slot_rows
        self._data[base : base + self.slot_rows] = table
        rows = self._data.view()
        rows.setflags(write=False)
        self.rows = rows
        return base


class _Slot:
    """One shared bound table: its arena and first row.  Collecting the
    last encoder that holds it releases the slot."""

    def __init__(self, arena: _Arena, base: int) -> None:
        self.arena, self.base = arena, base
        weakref.finalize(self, arena.free.append, base // arena.slot_rows)


_LOCK = threading.Lock()
_ARENAS: dict[tuple[int, int, int], _Arena] = {}
_SLOTS: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


def _shared_table(code_memory: ItemMemory,
                  electrode_memory: ItemMemory) -> _Slot:
    """The slot holding ``electrode XOR code`` for every pair, packed:
    electrode e's mask for code c is row ``base + e * n_codes + c``."""
    key = (code_memory.n_items, code_memory.seed, electrode_memory.n_items,
           electrode_memory.seed, code_memory.dim)
    with _LOCK:
        slot = _SLOTS.get(key)
        if slot is None:
            packed_codes = pack_bits(code_memory.vectors)
            packed_electrodes = pack_bits(electrode_memory.vectors)
            table = packed_electrodes[:, None, :] ^ packed_codes[None, :, :]
            shape = table.shape
            arena = _ARENAS.get(shape)
            if arena is None:
                arena = _ARENAS[shape] = _Arena(shape[0] * shape[1], shape[2])
            slot = _Slot(arena, arena.store(table.reshape(-1, shape[2])))
            _SLOTS[key] = slot
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

    def _checked(
        self, codes: np.ndarray, out: np.ndarray | None,
        bases: np.ndarray | None, flat: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        """``(n_samples, n_electrodes)`` codes, validated, ``out``, and
        the records' table bases, range-checked against ``flat``."""
        arr = np.asarray(codes)
        if arr.ndim == 1:
            arr = arr[None, :]
        if arr.ndim != 2 or arr.shape[1] != self.n_electrodes:
            raise ValueError(
                f"expected (n_samples, {self.n_electrodes}), got {arr.shape}"
            )
        if out is None:
            out = np.empty((arr.shape[0], self.words), dtype=np.uint64)
        if arr.size and (arr.min() < 0 or arr.max() >= self.n_codes):
            raise ValueError(f"code out of range [0, {self.n_codes})")
        if bases is None:
            return arr, out, None
        bases = np.asarray(bases)
        if bases.shape != (arr.shape[0],) or bases.dtype.kind not in "iu":
            raise ValueError(
                f"expected ({arr.shape[0]},) integer bases, got "
                f"{bases.shape} {bases.dtype}"
            )
        last = len(flat) - self.n_electrodes * self.n_codes
        if bases.size and (bases.min() < 0 or bases.max() > last):
            raise ValueError(f"table base out of range [0, {last}]")
        return arr, out, bases.astype(np.intp, copy=False)

    def _rows(self) -> tuple[np.ndarray, int]:
        """The arena holding this encoder's table, and the table's
        first row: electrode e's mask for code c is row
        ``base + e * n_codes + c``.  Read once per encode, so a growing
        arena never changes the array under it."""
        slot = self._slot
        return slot.arena.rows, slot.base

    def encode_packed(
        self, codes: np.ndarray, out: np.ndarray | None = None,
        bases: np.ndarray | None = None, tile: int | None = None,
    ) -> np.ndarray:
        """Spatial records for a batch, packed, ``(n_samples, words)``
        (see the module docstring) — no per-sample Python loop.

        ``out`` (any strides) receives the records instead of a new
        array.  ``bases`` gives record i's table as its first row in
        this encoder's arena (another encoder's :attr:`base`, if its
        tables have this one's shape); by default every record uses
        this encoder's table.  ``tile`` caps the records of one spatial
        tile below the plane budget's."""
        flat, base = self._rows()
        arr, out, bases = self._checked(codes, out, bases, flat)
        n_samples, n_electrodes = arr.shape
        tile = max(1, min(n_samples, _PLANE_WORDS // self.words,
                          tile or n_samples))
        # Electrodes whose (electrodes, tile) row indices fill one plane,
        # a whole number of triples: the codes are read electrode-major.
        span = min(n_electrodes, max(3, _PLANE_WORDS // tile // 3 * 3))
        first_row = np.arange(n_electrodes, dtype=np.intp) * self.n_codes
        if bases is None:
            first_row += base
        threshold = n_electrodes // 2
        free: list[np.ndarray] = []
        index_buffer = np.empty(span * tile, dtype=np.intp)
        mask_buffer = np.empty(3 * tile * self.words, dtype=np.uint64)
        for start in range(0, n_samples, tile):
            stop = min(start + tile, n_samples)
            n = stop - start
            # A short last tile takes the leading rows of pooled planes.
            counter = CarrySaveCounter((n, self.words), free)
            masks = mask_buffer[: 3 * n * self.words].reshape(3, n, self.words)
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
                for e in range(0, e1 - e0, 3):
                    if e + 3 <= e1 - e0:
                        np.take(flat, rows[e:e + 3], axis=0, out=masks,
                                mode="clip")
                        counter.push_triple(masks)
                        continue
                    for row in rows[e:]:
                        plane = counter.plane()
                        np.take(flat, row, axis=0, out=plane, mode="clip")
                        counter.push(0, plane)
            planes = counter.planes()
            planes_greater_than(planes, threshold, out=out[start:stop])
            free.extend(planes)
        return out
