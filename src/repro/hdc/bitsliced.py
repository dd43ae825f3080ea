"""Bit-sliced counting over packed hypervectors.

The GPU encoding kernel (Fig. 2) never unpacks vectors: it XORs packed
words, transposes 32 x 32 bit tiles and popcounts, so the majority of
32 electrodes costs a handful of word operations.  This module is the
software analogue: a **carry-save bit-sliced counter** holds one packed
register per binary digit, so adding a d-bit mask costs
``O(log2(capacity))`` word operations on all d positions at once, and
thresholding (the majority test) is a bitwise magnitude comparator —
no unpacking anywhere.

Used by :class:`repro.hdc.spatial_packed.PackedSpatialEncoder`, which
is word-exact against the plain integer-counter encoder and mirrors the
embedded implementation's data layout.
"""

from __future__ import annotations

import numpy as np

from repro.hdc.backend import pack_bits, unpack_bits

_ALL_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)


def plane_depth(k: int) -> int:
    """Digit planes needed to count up to ``k`` ones per position.

    The depth contract shared by :func:`bitsliced_counts` and its
    native kernel twin (:func:`repro.hdc.native.native_bitsliced_counts`):
    ``bit_length(k)`` digits hold every count in ``[0, k]``.  Plane
    consumers (:func:`planes_add`, :func:`planes_greater_than`,
    :func:`planes_to_counts`) depend only on the decoded counts, so the
    two implementations stay interchangeable downstream.
    """
    if k < 1:
        raise ValueError(f"mask count must be >= 1, got {k}")
    return max(1, int(k).bit_length())


def _carry_save_add(
    a: np.ndarray, b: np.ndarray, c: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """One 3:2 compressor: three same-weight planes -> (sum, carry)."""
    partial = a ^ b
    return partial ^ c, (a & b) | (c & partial)


def _reduce_plane(level: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """Compress ``(m, ...)`` same-weight masks to one plane plus carries.

    Applies 3:2 compressors in bulk (a Wallace-tree level per call), so
    the work per pass is a handful of full-width numpy operations rather
    than one Python iteration per mask.
    """
    carries: list[np.ndarray] = []
    while level.shape[0] > 2:
        groups = level.shape[0] // 3
        triples = level[: 3 * groups].reshape((groups, 3) + level.shape[1:])
        total, carry = _carry_save_add(
            triples[:, 0], triples[:, 1], triples[:, 2]
        )
        carries.append(carry)
        rest = level[3 * groups :]
        level = total if rest.shape[0] == 0 else np.concatenate(
            [total, rest], axis=0
        )
    if level.shape[0] == 2:
        carries.append((level[0] & level[1])[None])
        plane = level[0] ^ level[1]
    else:
        plane = level[0]
    if not carries:
        return plane, None
    return plane, np.concatenate(carries, axis=0)


def bitsliced_counts(masks: np.ndarray) -> np.ndarray:
    """Per-position 1-counts of a stack of packed masks, in digit planes.

    Args:
        masks: uint64 array ``(k, ..., words)`` of packed bit masks.

    Returns:
        uint64 array ``(depth, ..., words)``: plane ``j`` holds digit
        ``j`` of the per-position count, so position ``p`` of the batch
        was set in ``sum_j(plane[j] bit p) << j`` of the ``k`` masks.
        ``depth`` is exactly the number of digits needed for ``k``.
    """
    arr = np.asarray(masks, dtype=np.uint64)
    if arr.ndim < 2:
        raise ValueError(f"expected (k, ..., words) masks, got {arr.shape}")
    if arr.shape[0] == 0:
        raise ValueError("cannot count an empty stack of masks")
    planes: list[np.ndarray] = []
    level: np.ndarray | None = arr
    while level is not None:
        plane, level = _reduce_plane(level)
        planes.append(plane)
    return np.stack(planes)


def planes_add(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Add two bit-sliced counts digit-wise (a packed ripple adder).

    Both inputs are ``(depth, ..., words)`` planes as produced by
    :func:`bitsliced_counts`; the sum is computed one digit deeper than
    the deeper input so the final carry can never be lost, then trailing
    all-zero planes are trimmed — repeated accumulation (the streaming
    prototype trainer) keeps ``O(log n)`` depth instead of growing by
    one per call.
    """
    a_arr = np.asarray(a, dtype=np.uint64)
    b_arr = np.asarray(b, dtype=np.uint64)
    if a_arr.shape[1:] != b_arr.shape[1:]:
        raise ValueError(
            f"plane shapes disagree: {a_arr.shape[1:]} vs {b_arr.shape[1:]}"
        )
    depth = max(a_arr.shape[0], b_arr.shape[0]) + 1
    out = np.zeros((depth,) + a_arr.shape[1:], dtype=np.uint64)
    carry = np.zeros(a_arr.shape[1:], dtype=np.uint64)
    zero = np.zeros(a_arr.shape[1:], dtype=np.uint64)
    for j in range(depth):
        x = a_arr[j] if j < a_arr.shape[0] else zero
        y = b_arr[j] if j < b_arr.shape[0] else zero
        out[j], carry = _carry_save_add(x, y, carry)
    top = depth
    while top > 1 and not out[top - 1].any():
        top -= 1
    return out[:top]


def planes_greater_than(planes: np.ndarray, threshold: int) -> np.ndarray:
    """Packed mask of positions whose bit-sliced count exceeds ``threshold``.

    A bitwise magnitude comparator from the most significant digit
    down, vectorised over any batch shape: ``planes`` is
    ``(depth, ..., words)`` and the result is ``(..., words)``.  Padding
    bits stay zero for ``threshold >= 0``.
    """
    arr = np.asarray(planes, dtype=np.uint64)
    if arr.ndim < 2:
        raise ValueError(f"expected (depth, ..., words) planes, got {arr.shape}")
    batch = arr.shape[1:]
    if threshold < 0:
        return np.full(batch, _ALL_ONES, dtype=np.uint64)
    if threshold >> arr.shape[0]:
        return np.zeros(batch, dtype=np.uint64)
    greater = np.zeros(batch, dtype=np.uint64)
    equal = np.full(batch, _ALL_ONES, dtype=np.uint64)
    for j in range(arr.shape[0] - 1, -1, -1):
        plane = arr[j]
        if (threshold >> j) & 1:
            equal &= plane
        else:
            greater |= equal & plane
            equal &= ~plane
    return greater


def planes_to_counts(planes: np.ndarray, dim: int) -> np.ndarray:
    """Decode digit planes into plain integer counts (test/debug path)."""
    arr = np.asarray(planes, dtype=np.uint64)
    total = np.zeros(arr.shape[1:-1] + (dim,), dtype=np.int64)
    for j in range(arr.shape[0]):
        total += unpack_bits(arr[j], dim).astype(np.int64) << j
    return total


def planes_from_counts(counts: np.ndarray, dim: int) -> np.ndarray:
    """Encode plain integer counts into digit planes.

    Inverse of :func:`planes_to_counts`: the streaming-state import hook
    of the packed temporal encoder, which checkpoints its per-block
    counts in the engine-independent integer form.  Depth is the minimum
    needed for the largest count (downstream plane arithmetic only
    depends on the decoded counts, so depth differences are harmless).

    Args:
        counts: Non-negative integer array ``(..., dim)``.
        dim: Number of counted positions (hypervector components).

    Returns:
        uint64 array ``(depth, ..., packed_words(dim))``.
    """
    arr = np.asarray(counts)
    if arr.ndim < 1 or arr.shape[-1] != dim:
        raise ValueError(f"expected (..., {dim}) counts, got {arr.shape}")
    arr = arr.astype(np.int64)
    if arr.size and int(arr.min()) < 0:
        raise ValueError("counts must be non-negative")
    depth = max(int(arr.max()).bit_length(), 1) if arr.size else 1
    return np.stack(
        [pack_bits(((arr >> j) & 1).astype(np.uint8)) for j in range(depth)]
    )
