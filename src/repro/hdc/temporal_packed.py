"""Packed block step: window bundling without leaving the bit domain.

The packed engines' :class:`~repro.hdc.temporal.BlockTile`: spatial
records arrive as uint64 words from
:class:`~repro.hdc.spatial_packed.PackedSpatialEncoder`, each 0.5 s block
is reduced to bit-sliced digit planes by a carry-save compressor tree,
adjacent blocks are combined with a packed ripple adder, and the window
majority is a bitwise magnitude comparator — the Fig. 2 dataflow with no
unpacked intermediate anywhere, bit-exact against the integer-counter
tile.

:class:`PackedBlockTile` runs the tree, adder and comparator once per
``(step, blocks, words)`` tile of many streams' blocks, under the one
streaming encoder of every engine
(:class:`repro.hdc.temporal.WindowBundler`), so every spatial record is
encoded exactly once even though windows overlap, and memory stays O(d).
Every block state is ``plane_depth(step)`` digit planes deep, live or
restored from a checkpoint.
"""

from __future__ import annotations

import numpy as np

from repro.hdc.bitsliced import (
    bitsliced_counts,
    plane_depth,
    planes_add,
    planes_from_counts,
    planes_greater_than,
    planes_to_counts,
)
from repro.hdc.temporal import BlockTile


class PackedBlockTile(BlockTile):
    """Bit-sliced block step over packed uint64 records."""

    def _encode(self, encoder, block: np.ndarray, dest: np.ndarray) -> None:
        encoder.spatial.encode_packed(block, out=dest)

    @staticmethod
    def export_block(state: np.ndarray, dim: int) -> np.ndarray:
        return planes_to_counts(state, dim)

    @staticmethod
    def import_block(counts: np.ndarray, step: int) -> np.ndarray:
        # The depth the tree gives a live block, so every state stacks.
        return planes_from_counts(counts, counts.shape[-1], plane_depth(step))

    def _reduce(self, records: np.ndarray) -> np.ndarray:
        # (depth, n, words) planes; row r's block state is [:, r].
        return bitsliced_counts(records).transpose(1, 0, 2)

    def _windows(self, lags: list[list[np.ndarray]]) -> np.ndarray:
        window = np.stack(lags[0], axis=1)
        for lag in lags[1:]:
            window = planes_add(window, np.stack(lag, axis=1))
        return planes_greater_than(window, self.spec.window_samples // 2)
