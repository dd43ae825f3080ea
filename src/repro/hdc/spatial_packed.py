"""Packed spatial encoder: the Fig. 2 dataflow without unpacking.

Functionally identical to :class:`repro.hdc.spatial.SpatialEncoder` but
operating entirely on packed uint64 words: per sample it XORs the packed
electrode and code vectors (binding) and counts the bound masks in
bit-sliced digit planes (:mod:`repro.hdc.bitsliced`), whose magnitude
comparator implements the majority — exactly the XOR / transpose /
popcount structure of the paper's GPU encoding kernel restated for
64-bit CPU words.

Batch encoding reduces all samples of a tile at once: one
electrode-major gather from the flat packed bound table, then a
vectorised carry-save compressor tree
(:func:`repro.hdc.bitsliced.bitsliced_counts`) and a bitwise magnitude
comparator produce every spatial record of the tile in a handful of
full-width word operations.  Tiles are sized to stay in L2 cache, so the
tree re-reads its gathered masks from cache rather than memory.  The
packed backend of :class:`repro.core.detector.LaelapsDetector` runs
entirely through this path and is verified word-exact against the
unpacked encoder.
"""

from __future__ import annotations

import numpy as np

from repro.hdc.backend import pack_bits, packed_words
from repro.hdc.bitsliced import bitsliced_counts, planes_greater_than
from repro.hdc.item_memory import ItemMemory

#: Word budget per sample tile (about 2 MiB of gathered masks, one
#: core's L2 cache): the (n_electrodes, tile, words) masks and the
#: carry-save tree's planes stay cached while the tile is reduced.
_TILE_WORDS = 250_000


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

    def encode_packed(self, codes: np.ndarray) -> np.ndarray:
        """Spatial records for a batch, packed, ``(n_samples, words)``.

        Vectorised over the samples of each L2-sized tile: gathers the
        tile's bound masks electrode-major, ``(n_electrodes, tile,
        words)`` and contiguous, and reduces the electrode axis with
        :meth:`_majority` — no per-sample Python loop.
        """
        arr = np.asarray(codes)
        if arr.ndim == 1:
            arr = arr[None, :]
        if arr.ndim != 2 or arr.shape[1] != self.n_electrodes:
            raise ValueError(
                f"expected (n_samples, {self.n_electrodes}), got {arr.shape}"
            )
        n_samples = arr.shape[0]
        out = np.empty((n_samples, self.words), dtype=np.uint64)
        if n_samples == 0:
            return out
        if arr.min() < 0 or arr.max() >= self.n_codes:
            raise ValueError(f"code out of range [0, {self.n_codes})")
        # Electrode e's mask for code c is row e * n_codes + c of the
        # flat table view.
        flat = self._table.reshape(-1, self.words)
        first_row = np.arange(self.n_electrodes)[:, None] * self.n_codes
        tile = max(1, _TILE_WORDS // (self.n_electrodes * self.words))
        for start in range(0, n_samples, tile):
            stop = min(start + tile, n_samples)
            rows = np.add(first_row, arr[start:stop].T, dtype=np.intp)
            out[start:stop] = self._majority(np.take(flat, rows, axis=0))
        return out

    def _majority(self, masks: np.ndarray) -> np.ndarray:
        """Per-position majority of ``(n_electrodes, n, words)`` masks,
        ``(n, words)``: the per-tile reduction an engine may replace."""
        return planes_greater_than(
            bitsliced_counts(masks), self.n_electrodes // 2
        )

    def encode(self, codes: np.ndarray) -> np.ndarray:
        """Unpacked uint8 records, drop-in compatible with the default
        encoder (used by the equivalence tests)."""
        from repro.hdc.backend import unpack_bits

        return unpack_bits(self.encode_packed(codes), self.dim)
