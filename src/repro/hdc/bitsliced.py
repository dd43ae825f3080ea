"""Bit-sliced counting over packed hypervectors.

The GPU encoding kernel (Fig. 2) never unpacks vectors: it XORs packed
words, transposes 32 x 32 bit tiles and popcounts.  The software
analogue is one carry-save counter (:class:`CarrySaveCounter`): packed
registers per binary digit, so adding a d-bit mask costs a few word
operations on all d positions at once, and the majority test is an
LSB-first comparator over the digit list (:func:`planes_greater_than`).
The spatial encoder streams electrode triples through it, the temporal
block step adds sample slabs in bulk, window assembly adds block states
at their own digits, and :func:`bitsliced_counts` and :func:`planes_add`
are built on it.
"""

from __future__ import annotations

import numpy as np

from repro.hdc.backend import pack_bits, unpack_bits

_ALL_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)


def plane_depth(k: int) -> int:
    """Digit planes needed to count up to ``k`` ones per position:
    ``bit_length(k)``, the depth of :func:`bitsliced_counts` and of its
    native twin (:func:`repro.hdc.native.native_bitsliced_counts`)."""
    if k < 1:
        raise ValueError(f"mask count must be >= 1, got {k}")
    return max(1, int(k).bit_length())


class CarrySaveCounter:
    """Per-position counts of ``shape`` uint64 masks in digit planes.

    ``digits[j]`` holds the pending planes of weight ``2**j``; a digit
    that reaches three is compressed at once by a 3:2 adder, so at most
    two planes per digit are live.  Planes come from, and return to,
    ``free``; a pooled plane with more leading rows than ``shape`` hands
    out its leading rows.
    """

    def __init__(self, shape: tuple[int, ...],
                 free: list[np.ndarray] | None = None):
        self.shape = tuple(shape)
        self.free = [] if free is None else free
        self.digits: list[list[np.ndarray]] = []

    def plane(self) -> np.ndarray:
        if not self.free:
            return np.empty(self.shape, dtype=np.uint64)
        plane = self.free.pop()
        return plane if len(plane) == self.shape[0] else plane[: self.shape[0]]

    def _adder(self, a, b, c, total: np.ndarray) -> np.ndarray:
        """3:2 adder: the sum goes into ``total`` (``b`` may be it) and
        the carry into a new plane, returned; ``a`` is clobbered."""
        carry = self.plane()
        np.bitwise_and(a, b, out=carry)
        np.bitwise_xor(a, b, out=total)
        np.bitwise_and(c, total, out=a)
        np.bitwise_xor(total, c, out=total)
        np.bitwise_or(carry, a, out=carry)
        return carry

    def push(self, digit: int, plane: np.ndarray) -> None:
        """Add ``plane`` (owned by the counter from now on) at ``digit``."""
        while len(self.digits) <= digit:
            self.digits.append([])
        pending = self.digits[digit]
        pending.append(plane)
        if len(pending) == 3:
            a, b, c = pending
            pending.clear()
            carry = self._adder(a, b, c, b)
            self.free += (a, c)
            self.push(digit, b)
            self.push(digit + 1, carry)

    def push_triple(self, masks: np.ndarray) -> None:
        """Add a ``(3, *shape)`` stack the counter does not own (its
        first plane is clobbered)."""
        a, b, c = np.asarray(masks, dtype=np.uint64)
        total = self.plane()
        carry = self._adder(a, b, c, total)
        self.push(0, total)
        self.push(1, carry)

    def add(self, stack: np.ndarray, digit: int = 0) -> None:
        """Add every plane of an ``(m, *shape)`` stack at ``digit``: each
        pass is one 3:2 adder over the stack's thirds (five word
        operations whatever ``m``), its carries go one digit up the same
        way, and the planes it leaves over are copied into pooled
        planes.  The stack is only read."""
        while len(stack) >= 3:
            third = len(stack) // 3
            a, b = stack[:third], stack[third : 2 * third]
            c = stack[2 * third : 3 * third]
            total = a ^ b
            carry = a & b
            carry |= c & total
            total ^= c
            self._keep(digit, stack[3 * third :])
            self.add(carry, digit + 1)
            stack = total
        self._keep(digit, stack)

    def _keep(self, digit: int, planes: np.ndarray) -> None:
        for plane in planes:
            copy = self.plane()
            np.copyto(copy, plane)
            self.push(digit, copy)

    def planes(self, depth: int | None = None) -> list[np.ndarray]:
        """One plane per digit, least significant first (half adders
        resolve every digit still holding two).  With ``depth``, exactly
        that many: zero planes pad, and digits above it, which a count
        below ``2**depth`` leaves zero, are dropped."""
        for digit, pending in enumerate(self.digits):
            if not pending:
                pending.append(self.plane())
                pending[0].fill(0)
            elif len(pending) == 2:
                a, b = pending
                carry = self.plane()
                np.bitwise_and(a, b, out=carry)
                np.bitwise_xor(a, b, out=a)
                self.free.append(pending.pop())
                self.push(digit + 1, carry)
        planes = [pending[0] for pending in self.digits]
        if depth is not None:
            zero = np.zeros(self.shape, dtype=np.uint64)
            planes = planes[:depth] + [zero] * (depth - len(planes))
        return planes


def bitsliced_counts(masks: np.ndarray) -> np.ndarray:
    """Per-position 1-counts of a stack of packed masks, in digit planes.

    Args:
        masks: uint64 array ``(k, ..., words)`` of packed bit masks.

    Returns:
        uint64 array ``(depth, ..., words)``: plane ``j`` holds digit
        ``j`` of the per-position count, so position ``p`` of the batch
        was set in ``sum_j(plane[j] bit p) << j`` of the ``k`` masks.
        ``depth`` is exactly :func:`plane_depth` of ``k``.
    """
    arr = np.asarray(masks, dtype=np.uint64)
    if arr.ndim < 2:
        raise ValueError(f"expected (k, ..., words) masks, got {arr.shape}")
    if arr.shape[0] == 0:
        raise ValueError("cannot count an empty stack of masks")
    counter = CarrySaveCounter(arr.shape[1:])
    counter.add(arr)
    return np.stack(counter.planes(plane_depth(arr.shape[0])))


def planes_add(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Add two ``(depth, ..., words)`` bit-sliced counts, each digit
    plane into one counter at its own digit; trailing all-zero planes of
    the sum are trimmed, so repeated sums keep ``O(log n)`` depth."""
    a_arr = np.asarray(a, dtype=np.uint64)
    b_arr = np.asarray(b, dtype=np.uint64)
    if a_arr.shape[1:] != b_arr.shape[1:]:
        raise ValueError(
            f"plane shapes disagree: {a_arr.shape[1:]} vs {b_arr.shape[1:]}"
        )
    counter = CarrySaveCounter(a_arr.shape[1:])
    for planes in (a_arr, b_arr):
        for digit, plane in enumerate(planes):
            counter.add(plane[None], digit)
    out = counter.planes()
    while len(out) > 1 and not out[-1].any():
        out.pop()
    return np.stack(out)


def _digit_planes(digits) -> list[np.ndarray]:
    """Digit planes pinned one by one (a counter's list is not copied)."""
    planes = [np.asarray(plane, dtype=np.uint64) for plane in digits]
    if not planes or planes[0].ndim < 1:
        raise ValueError("expected (depth, ..., words) planes")
    return planes


def planes_greater_than(
    planes, threshold: int, out: np.ndarray | None = None
) -> np.ndarray:
    """Packed mask of positions whose bit-sliced count exceeds ``threshold``.

    ``planes`` is a digit list (a counter's, read in place) or a
    ``(depth, ..., words)`` array; the result is ``(...,  words)``,
    written into ``out`` when given.  The test is ``count >= t`` for
    ``t = threshold + 1``, LSB first, one word operation per digit:
    start from the digit of the lowest set bit of ``t``, then AND each
    higher digit where ``t`` has a set bit and OR it where ``t`` has a
    clear one.  Padding bits stay zero for ``threshold >= 0``.
    """
    planes = _digit_planes(planes)
    if out is None:
        out = np.empty(planes[0].shape, dtype=np.uint64)
    at_least = int(threshold) + 1
    if at_least <= 0:
        out.fill(_ALL_ONES)
    elif at_least >> len(planes):
        out.fill(0)
    else:
        low = (at_least & -at_least).bit_length() - 1
        np.copyto(out, planes[low])
        for digit in range(low + 1, len(planes)):
            if (at_least >> digit) & 1:
                np.bitwise_and(out, planes[digit], out=out)
            else:
                np.bitwise_or(out, planes[digit], out=out)
    return out


def planes_to_counts(planes: np.ndarray, dim: int) -> np.ndarray:
    """Decode digit planes into plain integer counts (test/debug path)."""
    arr = np.asarray(planes, dtype=np.uint64)
    total = np.zeros(arr.shape[1:-1] + (dim,), dtype=np.int64)
    for j in range(arr.shape[0]):
        total += unpack_bits(arr[j], dim).astype(np.int64) << j
    return total


def planes_from_counts(
    counts: np.ndarray, dim: int, depth: int | None = None
) -> np.ndarray:
    """Encode plain integer counts into digit planes.

    Inverse of :func:`planes_to_counts`: the block-state import hook of
    the packed block step, whose checkpoints hold per-block counts in
    the engine-independent integer form.

    Args:
        counts: Non-negative integer array ``(..., dim)``.
        dim: Number of counted positions (hypervector components).
        depth: Digit planes to emit; by default the minimum needed for
            the largest count.

    Returns:
        uint64 array ``(depth, ..., packed_words(dim))``.

    Raises:
        ValueError: For negative counts or counts that need more than
            ``depth`` digits.
    """
    arr = np.asarray(counts)
    if arr.ndim < 1 or arr.shape[-1] != dim:
        raise ValueError(f"expected (..., {dim}) counts, got {arr.shape}")
    arr = arr.astype(np.int64)
    if arr.size and int(arr.min()) < 0:
        raise ValueError("counts must be non-negative")
    needed = max(int(arr.max()).bit_length(), 1) if arr.size else 1
    if depth is None:
        depth = needed
    elif needed > depth:
        raise ValueError(f"counts need {needed} digit planes, not {depth}")
    return np.stack(
        [pack_bits(((arr >> j) & 1).astype(np.uint8)) for j in range(depth)]
    )
