"""Packed temporal encoder: window bundling without leaving the bit domain.

The packed counterpart of :class:`repro.hdc.temporal.TemporalEncoder`:
spatial records arrive as uint64 words from
:class:`~repro.hdc.spatial_packed.PackedSpatialEncoder`, each 0.5 s block
is reduced to bit-sliced digit planes by a carry-save compressor tree,
adjacent blocks are combined with a packed ripple adder, and the window
majority is a bitwise magnitude comparator — the Fig. 2 dataflow with no
unpacked intermediate anywhere, bit-exact against the integer-counter
encoder.

:class:`PackedBlockTile` runs the tree, adder and comparator once per
``(step, blocks, words)`` tile of many streams' blocks.  The
chunk-buffering scaffold is shared with the integer-counter encoder
(:class:`repro.hdc.temporal.WindowBundler`), so every spatial record is
encoded exactly once even though windows overlap, and memory stays O(d).
Both encoders emit the same packed ``(n_windows, words)`` uint64 H
vectors.
"""

from __future__ import annotations

import numpy as np

from repro.hdc.bitsliced import (
    bitsliced_counts,
    planes_add,
    planes_from_counts,
    planes_greater_than,
    planes_to_counts,
)
from repro.hdc.spatial_packed import PackedSpatialEncoder
from repro.hdc.temporal import BlockTile, WindowBundler


def stack_planes(planes: list[np.ndarray]) -> np.ndarray:
    """``(depth, words)`` digit planes as one ``(depth, n, words)`` batch,
    zero-padded to the deepest (a zero digit leaves a count unchanged)."""
    depth = max(p.shape[0] for p in planes)
    out = np.zeros((depth, len(planes), planes[0].shape[-1]), dtype=np.uint64)
    for i, p in enumerate(planes):
        out[: p.shape[0], i] = p
    return out


class PackedBlockTile(BlockTile):
    """Bit-sliced block step over packed uint64 records."""

    def _encode(self, encoder, block: np.ndarray, dest: np.ndarray) -> None:
        encoder.spatial.encode_packed(block, out=dest)

    def _reduce(self, records: np.ndarray) -> np.ndarray:
        # (depth, n, words) planes; row r's block state is [:, r].
        return bitsliced_counts(records).transpose(1, 0, 2)

    def _windows(self, lags: list[list[np.ndarray]]) -> np.ndarray:
        window = stack_planes(lags[0])
        for lag in lags[1:]:
            window = planes_add(window, stack_planes(lag))
        return planes_greater_than(window, self.spec.window_samples // 2)


class PackedTemporalEncoder(WindowBundler):
    """Streaming window bundler over packed spatial records.

    Bit-exact twin of :class:`repro.hdc.temporal.TemporalEncoder`: the
    same packed ``(n_windows, words)`` uint64 H vectors, with no
    unpacked intermediate.

    Args:
        spatial: The packed spatial encoder producing per-sample records.
        spec: Window geometry in samples (window a multiple of the step).
    """

    spatial: PackedSpatialEncoder
    tile_class = PackedBlockTile

    def _export_block(self, block: np.ndarray) -> np.ndarray:
        # Digit planes leave in the engine-independent integer form and
        # are rebuilt on restore (their depth only depends on the
        # decoded counts, so the round trip is bit-exact downstream).
        return planes_to_counts(block, self.dim)

    def _import_block(self, counts: np.ndarray) -> np.ndarray:
        return planes_from_counts(counts, self.dim)
