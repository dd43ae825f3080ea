"""Packed spatial encoder: the Fig. 2 dataflow without unpacking.

Functionally identical to :class:`repro.hdc.spatial.SpatialEncoder` but
on packed uint64 words: per sample it XORs the packed electrode and
code vectors (binding), counts the bound masks in bit-sliced digit
planes and takes the majority with the LSB-first comparator
(:func:`repro.hdc.bitsliced.planes_greater_than`) — the XOR / transpose
/ popcount structure of the paper's GPU encoding kernel restated for
64-bit CPU words, verified word-exact against the unpacked encoder.

Batch encoding tiles the samples so one ``(tile, words)`` plane holds
about ``_PLANE_WORDS`` words and every word operation runs on a
cache-resident operand.  Per tile it reads the codes electrode-major, a
plane-sized slice of electrodes at a time, gathers each electrode
triple's bound masks with one ``np.take`` from the flat packed table and
streams them through the carry-save counter
(:class:`repro.hdc.bitsliced.CarrySaveCounter`): only
``O(log n_electrodes)`` planes are ever live.
"""

from __future__ import annotations

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
        """Spatial records for a batch, packed, ``(n_samples, words)``
        (see the module docstring) — no per-sample Python loop.  ``out``
        (any strides) receives the records instead of a new array."""
        arr, out = self._checked(codes, out)
        n_samples, n_electrodes = arr.shape
        flat, first_row = self._rows()
        tile = max(1, min(n_samples, _PLANE_WORDS // self.words))
        # Electrodes whose (electrodes, tile) row indices fill one plane,
        # a whole number of triples: the codes are read electrode-major.
        span = min(n_electrodes, max(3, _PLANE_WORDS // tile // 3 * 3))
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
                # Codes are range-checked, so the unsafe cast is exact and
                # ``mode="clip"`` never clips; it lets ``take`` write into
                # ``out`` without the buffer ``mode="raise"`` needs.
                np.add(arr[start:stop, e0:e1].T, first_row[e0:e1, None],
                       out=rows, casting="unsafe")
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
