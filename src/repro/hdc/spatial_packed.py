"""Packed spatial encoder: the Fig. 2 dataflow without unpacking.

Functionally identical to :class:`repro.hdc.spatial.SpatialEncoder` but
operating entirely on packed uint64 words: per sample it XORs the packed
electrode and code vectors (binding) and counts the bound masks in
bit-sliced digit planes, whose magnitude comparator
(:func:`repro.hdc.bitsliced.planes_greater_than`) implements the
majority — exactly the XOR / transpose / popcount structure of the
paper's GPU encoding kernel restated for 64-bit CPU words.

Batch encoding streams the electrodes through a carry-save counter on
sample tiles whose ``(tile, words)`` plane holds about ``_PLANE_WORDS``
words, so every word operation runs on a cache-resident operand.  Per
tile, one ``np.take`` gathers each electrode triple's bound masks from
the flat packed table and one 3:2 adder compresses them; a digit that
collects three pending planes is compressed the same way, and half
adders leave one plane per digit for the comparator.  Only
``O(log n_electrodes)`` planes are ever live.  The packed backend of
:class:`repro.core.detector.LaelapsDetector` runs entirely through this
path and is verified word-exact against the unpacked encoder.
"""

from __future__ import annotations

import numpy as np

from repro.hdc.backend import pack_bits, packed_words

# ``bitsliced_counts`` is unused here; the name stays importable from
# this module because perfbench's tracer wraps it here.
from repro.hdc.bitsliced import bitsliced_counts  # noqa: F401
from repro.hdc.bitsliced import planes_greater_than
from repro.hdc.item_memory import ItemMemory

#: Word budget of one ``(tile, words)`` plane (128 KiB): small enough
#: that the counter's live planes and the gathered triple stay cached.
_PLANE_WORDS = 16_384


class _CarrySaveCounter:
    """Per-position counts of ``(n, words)`` masks in digit planes.

    ``digits[j]`` holds the pending planes of weight ``2**j``; a digit
    that reaches three is compressed at once, so at most two planes
    per digit are live.  Planes come from, and return to, ``free``.
    """

    def __init__(self, shape: tuple[int, int], free: list[np.ndarray]):
        self.shape = shape
        self.free = free
        self.digits: list[list[np.ndarray]] = []

    def plane(self) -> np.ndarray:
        if self.free:
            return self.free.pop()
        return np.empty(self.shape, dtype=np.uint64)

    def compress(
        self, a: np.ndarray, b: np.ndarray, c: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """3:2 adder: ``(sum, carry)`` planes; ``a`` is clobbered."""
        total, carry = self.plane(), self.plane()
        np.bitwise_xor(a, b, out=total)
        np.bitwise_and(a, b, out=carry)
        np.bitwise_and(c, total, out=a)
        np.bitwise_xor(total, c, out=total)
        np.bitwise_or(carry, a, out=carry)
        return total, carry

    def push(self, digit: int, plane: np.ndarray) -> None:
        """Add ``plane`` (owned by the counter from now on) at ``digit``."""
        if digit == len(self.digits):
            self.digits.append([])
        pending = self.digits[digit]
        pending.append(plane)
        if len(pending) == 3:
            total, carry = self.compress(*pending)
            self.free.extend(pending)
            pending.clear()
            self.push(digit, total)
            self.push(digit + 1, carry)

    def push_triple(self, a: np.ndarray, b: np.ndarray, c: np.ndarray):
        """Add three masks the counter does not own (``a`` is clobbered)."""
        total, carry = self.compress(a, b, c)
        self.push(0, total)
        self.push(1, carry)

    def planes(self) -> list[np.ndarray]:
        """One plane per digit, least significant first (half adders
        resolve every digit still holding two)."""
        for digit, pending in enumerate(self.digits):
            if len(pending) == 2:
                a, b = pending
                carry = self.plane()
                np.bitwise_and(a, b, out=carry)
                np.bitwise_xor(a, b, out=a)
                self.free.append(pending.pop())
                self.push(digit + 1, carry)
        return [pending[0] for pending in self.digits]


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
        # Precompute the packed bound table (n_electrodes, n_codes, words):
        # the software analogue of IM1/IM2 staged in shared memory.
        packed_codes = pack_bits(code_memory.vectors)
        packed_electrodes = pack_bits(electrode_memory.vectors)
        self._table = (
            packed_electrodes[:, None, :] ^ packed_codes[None, :, :]
        )

    def _checked(
        self, codes: np.ndarray, out: np.ndarray | None
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(n_samples, n_electrodes)`` codes, validated, and ``out``."""
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
        return arr, out

    def _rows(self) -> tuple[np.ndarray, np.ndarray]:
        """The flat bound table and each electrode's first row in it:
        electrode e's mask for code c is row ``e * n_codes + c``."""
        first_row = np.arange(self.n_electrodes, dtype=np.intp)
        return self._table.reshape(-1, self.words), first_row * self.n_codes

    def encode_packed(
        self, codes: np.ndarray, out: np.ndarray | None = None
    ) -> np.ndarray:
        """Spatial records for a batch, packed, ``(n_samples, words)``.

        Streams each plane-sized tile's electrodes through a
        carry-save counter (see the module docstring) — no per-sample
        Python loop.  ``out`` (any strides) receives the records
        instead of a new array.
        """
        arr, out = self._checked(codes, out)
        n_samples, n_electrodes = arr.shape
        flat, first_row = self._rows()
        tile = max(1, min(n_samples, _PLANE_WORDS // self.words))
        threshold = n_electrodes // 2
        free: list[np.ndarray] = []
        for start in range(0, n_samples, tile):
            stop = min(start + tile, n_samples)
            n = stop - start
            if n != tile:
                free = []  # the short last tile has its own plane shape
            counter = _CarrySaveCounter((n, self.words), free)
            masks = np.empty((3, n, self.words), dtype=np.uint64)
            rows = np.empty((3, n), dtype=np.intp)
            block = arr[start:stop]
            # Codes are range-checked, so the unsafe cast is exact and
            # ``mode="clip"`` never clips; it lets ``take`` write into
            # ``out`` without the buffer ``mode="raise"`` needs.
            for e in range(0, n_electrodes, 3):
                k = min(3, n_electrodes - e)
                np.add(block[:, e:e + k].T, first_row[e:e + k, None],
                       out=rows[:k], casting="unsafe")
                if k == 3:
                    np.take(flat, rows, axis=0, out=masks, mode="clip")
                    counter.push_triple(*masks)
                    continue
                for row in rows[:k]:
                    plane = counter.plane()
                    np.take(flat, row, axis=0, out=plane, mode="clip")
                    counter.push(0, plane)
            planes = counter.planes()
            out[start:stop] = planes_greater_than(planes, threshold)
            free.extend(planes)
        return out
