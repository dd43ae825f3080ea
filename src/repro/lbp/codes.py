"""Computation of one-dimensional local binary pattern codes.

Following Sec. II-A of the paper, an LBP code is computed in two steps:

1. Each pair of adjacent samples is reduced to one bit: 1 if the signal
   increases, 0 otherwise (ties count as "not increasing").
2. The code at sampling point ``t`` concatenates the bit at ``t`` with the
   following ``length - 1`` bits, the bit at ``t`` being the most
   significant.  The code stream therefore moves by one sample.

A signal of ``T`` samples yields ``T - length`` codes (``T - 1`` sign bits,
each code consuming ``length`` consecutive bits).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Widest code length for which ``2**length`` fits comfortably in uint8
#: histograms and item memories; the paper explores lengths 4..8.
MAX_LENGTH = 16


@dataclass(frozen=True)
class LBPConfig:
    """LBP symbolisation parameters.

    Attributes:
        length: Number of sign bits per code (the paper uses 6, giving 64
            symbols).  Must be in ``[1, MAX_LENGTH]``.
    """

    length: int = 6

    def __post_init__(self) -> None:
        if not 1 <= self.length <= MAX_LENGTH:
            raise ValueError(
                f"LBP length must be in [1, {MAX_LENGTH}], got {self.length}"
            )

    @property
    def alphabet_size(self) -> int:
        """Number of distinct codes, ``2 ** length``."""
        return 1 << self.length


def num_codes(n_samples: int, length: int = 6) -> int:
    """Number of LBP codes produced by a signal of ``n_samples`` samples."""
    return max(0, n_samples - length)


def sign_bits(signal: np.ndarray) -> np.ndarray:
    """First symbolisation step: sign of the temporal difference.

    Args:
        signal: Array ``(n_samples,)`` or ``(n_samples, n_channels)``.

    Returns:
        uint8 array of shape ``(n_samples - 1, ...)`` with 1 where the
        signal strictly increases and 0 otherwise.

    Neighbours are compared rather than subtracted: ``np.diff`` wraps
    on integer samples (``uint16`` 3 - 5 is 65534), a comparison never
    does, and it gives every dtype the codes of the same samples in
    float64.
    """
    arr = np.asarray(signal)
    if arr.shape[0] < 2:
        return np.zeros((0,) + arr.shape[1:], dtype=np.uint8)
    return (arr[1:] > arr[:-1]).astype(np.uint8)


def _bits_to_codes(bits: np.ndarray, length: int) -> np.ndarray:
    """Slide a ``length``-bit MSB-first window over a bit stream.

    ``bits`` is ``(n_bits, ...)``; the result is ``(n_bits - length + 1, ...)``
    of dtype uint16 (uint8 would overflow for length > 8).
    """
    n_bits = bits.shape[0]
    n_out = n_bits - length + 1
    if n_out <= 0:
        return np.zeros((0,) + bits.shape[1:], dtype=np.uint16)
    codes = np.zeros((n_out,) + bits.shape[1:], dtype=np.uint16)
    for k in range(length):
        shift = length - 1 - k
        codes += bits[k : k + n_out].astype(np.uint16) << shift
    return codes


def lbp_codes(signal: np.ndarray, length: int = 6) -> np.ndarray:
    """LBP code stream of a single-channel signal.

    Args:
        signal: 1-D array of ``n_samples`` amplitudes.
        length: Code length in bits.

    Returns:
        uint16 array of ``n_samples - length`` codes in ``[0, 2**length)``.
    """
    arr = np.asarray(signal)
    if arr.ndim != 1:
        raise ValueError(f"expected 1-D signal, got shape {arr.shape}")
    LBPConfig(length=length)  # validate
    return _bits_to_codes(sign_bits(arr), length)


def lbp_codes_multichannel(signal: np.ndarray, length: int = 6) -> np.ndarray:
    """LBP code streams for every channel of a multichannel signal.

    Args:
        signal: Array ``(n_samples, n_channels)``.
        length: Code length in bits.

    Returns:
        uint16 array ``(n_samples - length, n_channels)``; column ``j`` is
        the code stream of electrode ``j``.
    """
    arr = np.asarray(signal)
    if arr.ndim != 2:
        raise ValueError(f"expected (n_samples, n_channels), got {arr.shape}")
    LBPConfig(length=length)  # validate
    return _bits_to_codes(sign_bits(arr), length)
