"""Bit-level backend for binary hypervectors.

Hypervectors live in two forms:

* unpacked: ``uint8`` arrays of 0/1, shape ``(..., d)``;
* packed: ``uint64`` arrays, shape ``(..., ceil(d / 64))``, component ``k``
  stored in word ``k // 64`` at bit ``k % 64`` (LSB first).  Padding bits
  beyond ``d`` are always zero, which keeps XOR/popcount exact.

Packed form mirrors the word-packing of the paper's GPU kernels (which use
32-bit words); 64-bit words simply halve the word count on a CPU.  This
module owns that layout: packing, popcount and Hamming distance.  It has
no word-domain algebra beyond XOR, because Laelaps only binds and
bundles (Sec. II-B).
"""

from __future__ import annotations

import numpy as np

WORD_BITS = 64

_POPCOUNT_TABLE = np.array(
    [bin(value).count("1") for value in range(256)], dtype=np.uint8
)


def _popcount_lookup(words: np.ndarray) -> np.ndarray:
    """Byte-lookup per-word popcount: the numpy < 2.0 fallback path.

    Always defined (not only on old numpy) so the parity suite can run
    the packed backend through it on any numpy version — see
    ``tests/hdc/test_popcount_fallback.py``.
    """
    arr = np.ascontiguousarray(np.asarray(words, dtype=np.uint64))
    as_bytes = arr.view(np.uint8).reshape(arr.shape + (8,))
    return _POPCOUNT_TABLE[as_bytes].sum(axis=-1, dtype=np.uint8)


if hasattr(np, "bitwise_count"):
    _popcount = np.bitwise_count
else:  # pragma: no cover - selected only on numpy < 2.0
    _popcount = _popcount_lookup


def popcount_words(words: np.ndarray) -> np.ndarray:
    """Per-word population count of a uint64 array.

    Uses ``numpy.bitwise_count`` when available (numpy >= 2.0) and a
    byte-lookup fallback otherwise, so the packed backend works on any
    numpy the package's floor admits.
    """
    return _popcount(np.asarray(words, dtype=np.uint64))


def packed_words(dim: int) -> int:
    """Number of uint64 words needed for ``dim`` components."""
    if dim < 1:
        raise ValueError(f"dimension must be >= 1, got {dim}")
    return (dim + WORD_BITS - 1) // WORD_BITS


def random_bits(
    shape: tuple[int, ...] | int, rng: np.random.Generator
) -> np.ndarray:
    """I.i.d. equiprobable bits as a uint8 array of the given shape.

    This is the atomic-vector distribution of the paper: binomial with
    p = 0.5 per component.

    Args:
        shape: Output shape (int or tuple), typically ``(..., d)``.
        rng: Numpy generator owning the randomness (callers derive it
            from the config seed, keeping models reproducible).

    Returns:
        uint8 array of the requested shape with values in {0, 1}.
    """
    return rng.integers(0, 2, size=shape, dtype=np.uint8)


def pack_bits(bits: np.ndarray) -> np.ndarray:
    """Pack 0/1 components along the last axis into uint64 words.

    Args:
        bits: Array ``(..., d)`` of 0/1 values (any integer/bool dtype).

    Returns:
        uint64 array ``(..., packed_words(d))``; padding bits are zero.
    """
    arr = np.asarray(bits)
    if arr.ndim == 0:
        raise ValueError("cannot pack a scalar")
    dim = arr.shape[-1]
    n_words = packed_words(dim)
    pad = n_words * WORD_BITS - dim
    if pad:
        pad_widths = [(0, 0)] * (arr.ndim - 1) + [(0, pad)]
        arr = np.pad(arr, pad_widths)
    # packbits is MSB-first per byte; bitorder="little" gives LSB-first,
    # matching the word layout documented above once viewed as uint64.
    packed_u8 = np.packbits(arr.astype(np.uint8), axis=-1, bitorder="little")
    packed_u8 = np.ascontiguousarray(packed_u8)
    return packed_u8.view(np.uint64)


def unpack_bits(words: np.ndarray, dim: int) -> np.ndarray:
    """Inverse of :func:`pack_bits`.

    Args:
        words: uint64 array ``(..., packed_words(dim))``.
        dim: Number of valid components to recover.

    Returns:
        uint8 array ``(..., dim)`` of 0/1 values.
    """
    arr = np.asarray(words, dtype=np.uint64)
    if arr.shape[-1] != packed_words(dim):
        raise ValueError(
            f"expected {packed_words(dim)} words for dim={dim}, "
            f"got {arr.shape[-1]}"
        )
    as_bytes = arr.view(np.uint8).reshape(arr.shape[:-1] + (arr.shape[-1] * 8,))
    bits = np.unpackbits(as_bytes, axis=-1, bitorder="little")
    return bits[..., :dim]


def padding_set(words: np.ndarray, dim: int) -> bool:
    """Whether any bit beyond ``dim`` is set in ``(..., packed_words(dim))``
    uint64 words (:func:`pack_bits` always leaves them zero)."""
    tail = dim - (packed_words(dim) - 1) * WORD_BITS
    return tail < WORD_BITS and bool(np.any(words[..., -1] >> np.uint64(tail)))


def hamming_distance(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hamming distance between unpacked hypervectors.

    Broadcasts over leading axes; the last axis is the component axis.
    Returns an int64 array (0-d for two single vectors).
    """
    a_arr = np.asarray(a)
    b_arr = np.asarray(b)
    if a_arr.shape[-1] != b_arr.shape[-1]:
        raise ValueError(
            f"dimension mismatch: {a_arr.shape[-1]} vs {b_arr.shape[-1]}"
        )
    return np.count_nonzero(a_arr != b_arr, axis=-1)


def hamming_distance_packed(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hamming distance between packed hypervectors (XOR + popcount).

    Both inputs are uint64 arrays whose last axis is the word axis;
    broadcasting applies to leading axes.  Because padding bits are zero in
    both operands they never contribute to the count.
    """
    a_arr = np.asarray(a, dtype=np.uint64)
    b_arr = np.asarray(b, dtype=np.uint64)
    if a_arr.shape[-1] != b_arr.shape[-1]:
        raise ValueError(
            f"word-count mismatch: {a_arr.shape[-1]} vs {b_arr.shape[-1]}"
        )
    return _popcount(a_arr ^ b_arr).sum(axis=-1, dtype=np.int64)
