"""Item memories: seeded repositories of atomic hypervectors.

Laelaps uses two item memories (Fig. 2): ``IM1`` maps the 64 LBP codes and
``IM2`` maps the electrode names to nearly orthogonal random d-bit
vectors.  Binding an electrode vector with a code vector yields the
per-electrode code representation, shrinking the memory from ``64 * n`` to
``64 + n`` stored vectors (Sec. III-B).
"""

from __future__ import annotations

import operator

import numpy as np

from repro.hdc.backend import pack_bits, random_bits


class ItemMemory:
    """A fixed table of i.i.d. random binary hypervectors.

    Vectors are drawn once, on first use, from the equiprobable-bit
    distribution with an explicit seed, so every run of a configured
    detector sees the same atomic vectors; a memory whose bound table
    is already shared never draws them.

    Args:
        n_items: Number of atomic vectors (e.g. 64 codes, or n electrodes).
        dim: Hypervector dimension d in bits.
        seed: Integer seed for the generator; two memories in one model
            must use different seeds (the detector derives them from a
            master seed).  The vectors depend only on ``(n_items, dim,
            seed)``, which is what lets encoders share bound tables.
    """

    def __init__(self, n_items: int, dim: int, seed: int) -> None:
        if n_items < 1:
            raise ValueError(f"n_items must be >= 1, got {n_items}")
        if dim < 1:
            raise ValueError(f"dim must be >= 1, got {dim}")
        self.n_items = n_items
        self.dim = dim
        self.seed = operator.index(seed)
        self._vectors: np.ndarray | None = None

    @property
    def vectors(self) -> np.ndarray:
        """All atomic vectors, read-only uint8 array ``(n_items, dim)``."""
        if self._vectors is None:
            vectors = random_bits((self.n_items, self.dim),
                                  np.random.default_rng(self.seed))
            vectors.setflags(write=False)
            self._vectors = vectors
        return self._vectors

    def vector(self, index: int) -> np.ndarray:
        """The atomic vector of item ``index`` (read-only view)."""
        if not 0 <= index < self.n_items:
            raise IndexError(f"item {index} out of range [0, {self.n_items})")
        return self.vectors[index]

    def packed(self) -> np.ndarray:
        """All vectors in packed uint64 form, ``(n_items, words)``."""
        return pack_bits(self.vectors)

    def storage_bits(self) -> int:
        """Total storage of this memory in bits (as in Sec. V-B sizing)."""
        return self.n_items * self.dim

    def cross_distances(self) -> np.ndarray:
        """Pairwise normalised Hamming distances ``(n_items, n_items)``.

        Off-diagonal entries concentrate around 0.5 for d in the
        thousands — the near-orthogonality HD computing relies on.
        """
        diff = self.vectors[:, None, :] != self.vectors[None, :, :]
        return diff.sum(axis=-1) / self.dim


def bound_table(code_memory: ItemMemory, electrode_memory: ItemMemory) -> np.ndarray:
    """Precompute every electrode-code binding.

    Returns a uint8 array ``(n_electrodes, n_codes, dim)`` whose entry
    ``[j, c]`` is ``E_j XOR C_c``.  The spatial encoder gathers rows from
    this table instead of re-binding per sample; for the paper-scale
    configuration (128 electrodes, 64 codes, d = 1 kbit) the table is
    1 MiB — the software analogue of keeping IM1/IM2 in GPU shared memory.
    """
    if code_memory.dim != electrode_memory.dim:
        raise ValueError(
            "item memories must share a dimension, got "
            f"{code_memory.dim} and {electrode_memory.dim}"
        )
    electrodes = electrode_memory.vectors[:, None, :]
    codes = code_memory.vectors[None, :, :]
    return np.bitwise_xor(electrodes, codes)
