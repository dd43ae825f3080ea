"""Associative memory: prototype learning and nearest-prototype queries.

Training bundles all H vectors of a labelled brain state into one d-bit
prototype (Sec. III-B): the interictal prototype ``P1`` from a 30 s
interictal segment, the ictal prototype ``P2`` from 10-30 s of seizure.
Classification compares a query H to every prototype by Hamming distance
and returns the argmin label; the distances themselves feed the
postprocessor's confidence score delta = |eta(H, P1) - eta(H, P2)|.

The memory holds its prototypes once, packed, and answers every query
with the packed sweep; each engine (:mod:`repro.hdc.engine`) packs its
queries and finalizes prototypes with its own accumulator.
"""

from __future__ import annotations

import numpy as np

from repro.hdc.backend import (
    WORD_BITS,
    hamming_distance_packed,
    pack_bits,
    packed_words,
    unpack_bits,
)
from repro.hdc.bitsliced import (
    bitsliced_counts,
    planes_add,
    planes_greater_than,
)


class PackedPrototypeAccumulator:
    """Streaming trainer for one class prototype, packed end to end.

    The packed twin of :class:`repro.hdc.ops.BundleAccumulator`: H
    vectors arrive as uint64 words, per-batch counts come from the
    carry-save compressor tree, batches combine through the packed
    ripple adder, and the final majority is the bitwise magnitude
    comparator — the prototype never exists in unpacked form and is
    bit-exact against the integer-counter path.
    """

    def __init__(self, dim: int) -> None:
        if dim < 1:
            raise ValueError(f"dim must be >= 1, got {dim}")
        self.dim = dim
        self.words = packed_words(dim)
        self._planes: np.ndarray | None = None
        self._n = 0

    @property
    def count(self) -> int:
        """Number of H vectors accumulated."""
        return self._n

    def add(self, h_vectors: np.ndarray) -> "PackedPrototypeAccumulator":
        """Accumulate one ``(words,)`` vector or a ``(k, words)`` batch."""
        arr = np.asarray(h_vectors, dtype=np.uint64)
        if arr.ndim == 1:
            arr = arr[None, :]
        if arr.ndim != 2 or arr.shape[1] != self.words:
            raise ValueError(
                f"expected (k, {self.words}) packed batch, got {arr.shape}"
            )
        if arr.shape[0] == 0:
            return self
        planes = bitsliced_counts(arr)
        self._planes = (
            planes
            if self._planes is None
            else planes_add(self._planes, planes)
        )
        self._n += arr.shape[0]
        return self

    def finalize(self) -> np.ndarray:
        """Produce the majority-thresholded prototype, uint64 ``(words,)``."""
        if self._planes is None:
            raise ValueError("cannot finalize an empty bundle")
        return planes_greater_than(self._planes, self._n // 2)


class AssociativeMemory:
    """Nearest-prototype classifier over packed binary hypervectors.

    Prototypes are stored once, as uint64 words, and queried by one
    XOR + popcount sweep (the GPU classification kernel of Sec. V-B);
    :meth:`prototype` unpacks a copy for inspection and persistence.

    Args:
        dim: Hypervector dimension d.
    """

    def __init__(self, dim: int) -> None:
        if dim < 1:
            raise ValueError(f"dim must be >= 1, got {dim}")
        self.dim = dim
        self._labels: list[int] = []
        self._label_table = np.zeros(0, dtype=np.int64)
        self._packed: np.ndarray | None = None

    @property
    def labels(self) -> list[int]:
        """Stored class labels in insertion order."""
        return list(self._labels)

    @property
    def n_classes(self) -> int:
        """Number of stored prototypes."""
        return len(self._labels)

    @property
    def words(self) -> int:
        """Packed word count per prototype/query."""
        return packed_words(self.dim)

    def prototype(self, label: int) -> np.ndarray:
        """The stored prototype for ``label`` (unpacked uint8 copy)."""
        try:
            row = self._labels.index(label)
        except ValueError:
            raise KeyError(f"no prototype stored for label {label}") from None
        return unpack_bits(self._packed[row], self.dim)

    def store(self, label: int, prototype: np.ndarray) -> None:
        """Insert or replace the prototype of class ``label`` from bits."""
        arr = np.asarray(prototype, dtype=np.uint8)
        if arr.shape != (self.dim,):
            raise ValueError(
                f"prototype must have shape ({self.dim},), got {arr.shape}"
            )
        if np.any(arr > 1):
            raise ValueError("prototype components must be 0/1")
        self._insert(label, pack_bits(arr))

    def store_packed(self, label: int, prototype: np.ndarray) -> None:
        """Insert or replace the prototype of ``label`` from packed words."""
        arr = np.asarray(prototype, dtype=np.uint64)
        if arr.shape != (self.words,):
            raise ValueError(
                f"packed prototype must have shape ({self.words},), "
                f"got {arr.shape}"
            )
        tail = self.dim - (self.words - 1) * WORD_BITS
        if tail < WORD_BITS and int(arr[-1] >> np.uint64(tail)):
            raise ValueError("padding bits beyond dim must be zero")
        self._insert(label, arr)

    def _insert(self, label: int, words: np.ndarray) -> None:
        # Build a new block rather than writing into the old one:
        # packed_block() hands out views that must stay unchanged.
        rows = [] if self._packed is None else list(self._packed)
        if label in self._labels:
            rows[self._labels.index(label)] = words
        else:
            self._labels.append(label)
            rows.append(words)
        self._label_table = np.asarray(self._labels, dtype=np.int64)
        self._packed = np.stack(rows)

    def distances_packed(self, h_vectors: np.ndarray) -> np.ndarray:
        """Hamming distances from packed queries to every prototype.

        One XOR + popcount sweep over the whole ``(n_windows, words)``
        block against all prototypes at once, no per-window Python loop
        and no unpacking.

        Args:
            h_vectors: One ``(words,)`` packed query or a batch
                ``(n, words)``.

        Returns:
            int64 array ``(n, n_classes)`` (``(n_classes,)`` for a single
            query), columns ordered like :attr:`labels`.
        """
        if self._packed is None:
            raise RuntimeError("associative memory has no prototypes")
        arr = np.asarray(h_vectors, dtype=np.uint64)
        single = arr.ndim == 1
        if single:
            arr = arr[None, :]
        if arr.shape[-1] != self.words:
            raise ValueError(
                f"packed queries must have {self.words} words, "
                f"got {arr.shape[-1]}"
            )
        dists = hamming_distance_packed(
            arr[:, None, :], self._packed[None, :, :]
        )
        return dists[0] if single else dists

    def classify_packed(
        self, h_vectors: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Nearest-prototype labels and the full distance matrix.

        Returns:
            ``(labels, distances)`` where ``labels`` is an int64 array of
            class labels (ties resolve to the earliest-stored class, i.e.
            interictal when stored first — the conservative choice for a
            detector) and ``distances`` is as in :meth:`distances_packed`.
        """
        dists = self.distances_packed(h_vectors)
        return self._label_table[np.argmin(dists, axis=-1)], dists

    def packed_block(self) -> tuple[np.ndarray, np.ndarray]:
        """The memory's prototypes as one grouped-sweep block.

        Returns:
            ``(prototypes, labels)``: uint64 ``(n_classes, words)`` and
            int64 ``(n_classes,)`` arrays, insertion-ordered like
            :attr:`labels`.  Both are views into the memory's state
            (``store`` replaces them wholesale, so holding a view is
            safe); feed them to :func:`grouped_classify_packed`.
        """
        if self._packed is None:
            raise RuntimeError("associative memory has no prototypes")
        return self._packed, self._label_table


def grouped_classify_packed(
    queries: np.ndarray,
    prototype_stack: np.ndarray,
    owners: np.ndarray,
    label_table: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Classify a mixed batch of packed queries, each against its owner.

    The cross-session serving kernel: rows of ``queries`` belong to
    *different* associative memories (e.g. different patients' models),
    and every row is scored against its own memory's prototype block in
    a single vectorized XOR + popcount sweep — no per-session Python
    loop, no unpacking.  Bit-exact against calling
    :meth:`AssociativeMemory.classify_packed` memory by memory.

    Args:
        queries: uint64 array ``(n, words)`` of packed H vectors.
        prototype_stack: uint64 array ``(n_memories, n_classes, words)``
            of packed prototypes (every memory the same class count —
            two for Laelaps detectors).
        owners: int array ``(n,)`` mapping each query row to its memory
            (row of ``prototype_stack``).
        label_table: int64 array ``(n_memories, n_classes)`` giving the
            class label of each prototype row, insertion-ordered as in
            :attr:`AssociativeMemory.labels`.

    Returns:
        ``(labels, distances)``: int64 ``(n,)`` class labels (ties
        resolve to the earliest-stored class, as in
        :meth:`AssociativeMemory.classify_packed`) and int64
        ``(n, n_classes)`` Hamming distances.
    """
    query_arr, stack, owner_arr, table = _validate_grouped(
        queries, prototype_stack, owners, label_table
    )
    dists = hamming_distance_packed(
        query_arr[:, None, :], stack[owner_arr]
    )
    idx = np.argmin(dists, axis=-1)
    labels = table[owner_arr, idx]
    return labels, dists


def _validate_grouped(
    queries: np.ndarray,
    prototype_stack: np.ndarray,
    owners: np.ndarray,
    label_table: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Shared coercion/validation for the grouped-sweep implementations.

    Both :func:`grouped_classify_packed` and its native twin
    (:func:`repro.hdc.native.grouped_classify_packed_native`) enter
    through here, so argument contracts stay identical across engines.
    """
    query_arr = np.asarray(queries, dtype=np.uint64)
    stack = np.asarray(prototype_stack, dtype=np.uint64)
    owner_arr = np.asarray(owners, dtype=np.intp)
    table = np.asarray(label_table, dtype=np.int64)
    if query_arr.ndim != 2 or stack.ndim != 3:
        raise ValueError(
            f"need (n, words) queries and (m, c, words) prototypes, got "
            f"{query_arr.shape} and {stack.shape}"
        )
    if query_arr.shape[-1] != stack.shape[-1]:
        raise ValueError(
            f"word-count mismatch: {query_arr.shape[-1]} vs {stack.shape[-1]}"
        )
    if owner_arr.shape != (query_arr.shape[0],):
        raise ValueError(
            f"owners must be ({query_arr.shape[0]},), got {owner_arr.shape}"
        )
    if table.shape != stack.shape[:2]:
        raise ValueError(
            f"label table must be {stack.shape[:2]}, got {table.shape}"
        )
    return query_arr, stack, owner_arr, table
