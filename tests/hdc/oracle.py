"""Per-sample reference path of the packed spatial encoder (test oracle).

:class:`BitslicedCounter` accumulates packed masks one at a time with a
ripple carry over bit-sliced registers, and :func:`encode_sample_packed`
majority-bundles one sample's bound masks through it.  Production code
reduces whole chunks at once with the carry-save tree of
:mod:`repro.hdc.bitsliced`; these one-mask-at-a-time twins exist only
to check it against an independent, obviously-correct formulation.
"""

from __future__ import annotations

import numpy as np

from repro.hdc.backend import packed_words, unpack_bits
from repro.hdc.spatial_packed import PackedSpatialEncoder


class BitslicedCounter:
    """Per-component counter over packed bit masks.

    Args:
        dim: Number of counted positions (hypervector components).
        capacity: Maximum number of masks that will be added; sets the
            register depth ``ceil(log2(capacity + 1))``.
    """

    def __init__(self, dim: int, capacity: int) -> None:
        if dim < 1 or capacity < 1:
            raise ValueError("dim and capacity must be >= 1")
        self.dim = dim
        self.capacity = capacity
        self.depth = max(1, int(np.ceil(np.log2(capacity + 1))))
        self._words = packed_words(dim)
        self._registers = np.zeros((self.depth, self._words), dtype=np.uint64)
        self._added = 0

    @property
    def n_added(self) -> int:
        """Number of masks accumulated so far."""
        return self._added

    def add(self, mask: np.ndarray) -> "BitslicedCounter":
        """Add one packed mask (uint64 array of ``packed_words(dim)``).

        Ripple-carry over the bit-sliced registers: digit j absorbs the
        carry with one XOR and regenerates it with one AND.
        """
        if self._added >= self.capacity:
            raise ValueError(f"counter capacity {self.capacity} exhausted")
        carry = np.asarray(mask, dtype=np.uint64)
        if carry.shape != (self._words,):
            raise ValueError(
                f"expected packed mask of {self._words} words, "
                f"got shape {carry.shape}"
            )
        carry = carry.copy()
        for register in self._registers:
            next_carry = register & carry
            register ^= carry
            carry = next_carry
            if not carry.any():
                break
        self._added += 1
        return self

    def counts(self) -> np.ndarray:
        """Per-position counts as plain integers (test/debug path)."""
        total = np.zeros(self.dim, dtype=np.int64)
        for j, register in enumerate(self._registers):
            total += unpack_bits(register, self.dim).astype(np.int64) << j
        return total

    def greater_than(self, threshold: int) -> np.ndarray:
        """Packed mask of positions where the count exceeds ``threshold``.

        A bitwise magnitude comparator from the most significant digit
        down: at each digit, positions still equal so far become
        *greater* when the counter has a 1 where the threshold has a 0.
        """
        if threshold < 0:
            return np.full(
                self._words, np.uint64(0xFFFFFFFFFFFFFFFF), dtype=np.uint64
            )
        ones = np.uint64(0xFFFFFFFFFFFFFFFF)
        greater = np.zeros(self._words, dtype=np.uint64)
        equal = np.full(self._words, ones, dtype=np.uint64)
        for j in range(self.depth - 1, -1, -1):
            register = self._registers[j]
            t_bit = (threshold >> j) & 1
            if t_bit == 0:
                greater |= equal & register
                equal &= ~register
            else:
                equal &= register
        # Thresholds at/above 2**depth can never be exceeded; positions
        # with equality all the way down are not greater.
        if threshold >> self.depth:
            return np.zeros(self._words, dtype=np.uint64)
        return greater

    def reset(self) -> None:
        """Clear the counter for reuse."""
        self._registers[...] = 0
        self._added = 0


def encode_sample_packed(
    encoder: PackedSpatialEncoder, codes: np.ndarray
) -> np.ndarray:
    """Spatial record of one sample, packed, shape ``(words,)``."""
    arr = np.asarray(codes)
    if arr.shape != (encoder.n_electrodes,):
        raise ValueError(
            f"expected ({encoder.n_electrodes},) codes, got {arr.shape}"
        )
    if arr.min() < 0 or arr.max() >= encoder.n_codes:
        raise ValueError(f"code out of range [0, {encoder.n_codes})")
    counter = BitslicedCounter(encoder.dim, encoder.n_electrodes)
    flat, base = encoder._rows()
    for j in range(encoder.n_electrodes):
        counter.add(flat[base + j * encoder.n_codes + arr[j]])
    return counter.greater_than(encoder.n_electrodes // 2)
