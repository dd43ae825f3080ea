"""HD arithmetic: binding and bundling, on unpacked bits.

The paper uses exactly two combining operations (Sec. II-B), and this
module is all of its algebra:

* **binding** — componentwise XOR; produces a vector dissimilar to its
  inputs, used to pair an electrode-name vector with an LBP-code vector;
* **bundling** — componentwise majority; produces a vector similar to its
  inputs, used to superpose the per-electrode bound vectors (the spatial
  record ``S``) and the per-sample records over time (the histogram
  vector ``H``).

The majority convention follows the paper verbatim: the result component
is 0 when at least half of the ``k`` inputs are 0, i.e. 1 only when
*strictly more* than ``k // 2`` inputs are 1 (ties on an even number of
inputs break to 0).  :func:`bundle` is the unpacked engine's one-shot
prototype bundler; the packed engines bundle in the word domain
(:func:`repro.hdc.associative.bundle_packed`).
"""

from __future__ import annotations

import numpy as np


def bind(*vectors: np.ndarray) -> np.ndarray:
    """Bind hypervectors by componentwise XOR.

    Accepts two or more unpacked (or packed — XOR commutes with packing)
    vectors and reduces them left to right.  Binding is associative,
    commutative, and self-inverse: ``bind(a, bind(a, b)) == b``.

    Args:
        *vectors: Two or more arrays of identical shape ``(..., d)``
            (unpacked 0/1) or ``(..., words)`` (packed uint64).

    Returns:
        Array of the common shape, the XOR reduction.
    """
    if len(vectors) < 2:
        raise ValueError("bind needs at least two vectors")
    out = np.bitwise_xor(vectors[0], vectors[1])
    for vec in vectors[2:]:
        out = np.bitwise_xor(out, vec)
    return out


def majority_from_counts(counts: np.ndarray, k: int) -> np.ndarray:
    """Binarise per-component 1-counts of ``k`` bundled inputs.

    Args:
        counts: Integer array of per-component counts in ``[0, k]``.
        k: Number of bundled inputs.

    Returns:
        uint8 array: 1 where strictly more than ``k // 2`` inputs were 1.
    """
    if k < 1:
        raise ValueError(f"bundle size must be >= 1, got {k}")
    return (np.asarray(counts) > (k // 2)).astype(np.uint8)


def bundle(vectors: np.ndarray | list[np.ndarray]) -> np.ndarray:
    """Bundle unpacked hypervectors by componentwise majority.

    Args:
        vectors: Array ``(k, d)`` (or a list of ``k`` arrays ``(d,)``) of
            0/1 components.

    Returns:
        uint8 array ``(d,)``, the thresholded sum.
    """
    arr = np.asarray(vectors)
    if arr.ndim != 2:
        raise ValueError(f"expected (k, d) stack of vectors, got {arr.shape}")
    k = arr.shape[0]
    counts = arr.sum(axis=0, dtype=np.int64)
    return majority_from_counts(counts, k)
