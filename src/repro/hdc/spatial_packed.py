"""Packed spatial encoder: the Fig. 2 dataflow without unpacking.

Functionally identical to :class:`repro.hdc.spatial.SpatialEncoder` but
operating entirely on packed uint64 words: per sample it XORs the packed
electrode and code vectors (binding) and counts the bound masks in
bit-sliced digit planes (:mod:`repro.hdc.bitsliced`), whose magnitude
comparator implements the majority — exactly the XOR / transpose /
popcount structure of the paper's GPU encoding kernel restated for
64-bit CPU words.

Batch encoding reduces all samples of a chunk at once: per electrode one
gather from the packed bound table, then a vectorised carry-save
compressor tree (:func:`repro.hdc.bitsliced.bitsliced_counts`) and a
bitwise magnitude comparator produce every spatial record in a handful
of full-width word operations — the packed backend of
:class:`repro.core.detector.LaelapsDetector` runs entirely through this
path and is verified word-exact against the unpacked encoder.
"""

from __future__ import annotations

import numpy as np

from repro.hdc.backend import pack_bits, packed_words
from repro.hdc.bitsliced import bitsliced_counts, planes_greater_than
from repro.hdc.item_memory import ItemMemory

#: Word budget per batch chunk (~64 MiB of gathered masks); keeps the
#: (n_electrodes, chunk, words) intermediate cache-friendly.
_CHUNK_WORDS = 8_000_000


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

        Vectorised over samples: gathers every bound mask of the chunk
        from the packed table and reduces the electrode axis with the
        carry-save compressor tree — no per-sample Python loop.
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
        chunk = max(1, _CHUNK_WORDS // (self.n_electrodes * self.words))
        electrode_index = np.arange(self.n_electrodes)
        for start in range(0, n_samples, chunk):
            stop = min(start + chunk, n_samples)
            # (stop - start, n_electrodes, words) gather, electrode-major
            # for the reduction along axis 0.
            masks = self._table[electrode_index, arr[start:stop]]
            planes = bitsliced_counts(np.ascontiguousarray(masks.swapaxes(0, 1)))
            out[start:stop] = planes_greater_than(
                planes, self.n_electrodes // 2
            )
        return out

    def encode(self, codes: np.ndarray) -> np.ndarray:
        """Unpacked uint8 records, drop-in compatible with the default
        encoder (used by the equivalence tests)."""
        from repro.hdc.backend import unpack_bits

        return unpack_bits(self.encode_packed(codes), self.dim)
