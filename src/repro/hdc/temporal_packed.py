"""Packed block step: window bundling without leaving the bit domain.

The packed engines' :class:`~repro.hdc.temporal.BlockTile`: the spatial
encoder writes each sample slab of a tile's blocks as uint64 words, and
the slab's sample planes go straight into one carry-save counter
(:class:`~repro.hdc.bitsliced.CarrySaveCounter`) whose digit planes are
the blocks' states.  A window adds its blocks' digit planes at their
own digits in a second counter, and the majority is the LSB-first
comparator — the Fig. 2 dataflow with no unpacked intermediate and no
record buffer, bit-exact against the integer-counter tile.  Every block
state is ``plane_depth(step)`` digit planes deep, live or restored from
a checkpoint.
"""

from __future__ import annotations

import numpy as np

# ``bitsliced_counts`` and ``planes_add`` are unused here; the names
# stay importable from this module because perfbench's tracer wraps
# them here.
from repro.hdc.bitsliced import (
    CarrySaveCounter,
    bitsliced_counts,  # noqa: F401
    plane_depth,
    planes_add,  # noqa: F401
    planes_from_counts,
    planes_greater_than,
    planes_to_counts,
)
from repro.hdc.temporal import BlockTile


class PackedBlockTile(BlockTile):
    """Bit-sliced block step over packed uint64 records."""

    def _encode(self, encoder, codes: np.ndarray,
                out: np.ndarray | None) -> np.ndarray:
        return encoder.spatial.encode_packed(codes, out=out)

    @staticmethod
    def export_block(state: np.ndarray, dim: int) -> np.ndarray:
        return planes_to_counts(state, dim)

    @staticmethod
    def import_block(counts: np.ndarray, step: int) -> np.ndarray:
        # The depth the counter gives a live block, so every state stacks.
        return planes_from_counts(counts, counts.shape[-1], plane_depth(step))

    def _counter(self, rows: int) -> CarrySaveCounter:
        return CarrySaveCounter((rows, self.width))

    def _add(self, counter: CarrySaveCounter, slab: np.ndarray) -> None:
        counter.add(slab)

    def _states(self, counter: CarrySaveCounter) -> np.ndarray:
        # (rows, depth, words): row r's block state is [r].
        depth = plane_depth(self.spec.step_samples)
        return np.stack(counter.planes(depth), axis=1)

    def _windows(self, lags: list[list[np.ndarray]]) -> np.ndarray:
        counter = CarrySaveCounter((len(lags[0]), self.width))
        for lag in lags:
            for digit, plane in enumerate(np.stack(lag, axis=1)):
                counter.push(digit, plane)
        return planes_greater_than(counter.planes(),
                                   self.spec.window_samples // 2)
